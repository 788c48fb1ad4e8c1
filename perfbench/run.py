"""Benchmark of the ctecs pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate-n12 --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src/``.  Set-up makes the
inputs from ``--seed``, writes them to files and warms up; then whole
cycles of the workload (see ``workloads.py``) run as a closed loop, one
call after another, for up to ``--seconds`` of measured time.  Each cycle
gets fresh instances from the seed.  Outputs are checked after the loop,
outside the timed region.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import LAYER_UNITS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up runs this many times, each in a fresh process, and its median is
# reported.
SETUP_REPEATS = 5
PROBE_REPEATS = 3

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Worst error against the dense oracle, as recorded by each workload's check.
ACCURACY_UNITS = {"coef_err_max": "expectation", "walk_marginal_l1": "l1",
                  "l1_enum": "l1"}
# Inputs and outputs of a run live here, inside the checkout.
WORK_DIR = ".perfbench_work"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one timed set-up in a fresh process, inputs under this dir
    parser.add_argument("--setup-only", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def _peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_op(op, tracer=None) -> None:
    from ctecs import cli

    started = time.perf_counter()
    try:
        if tracer is None:
            op.rc = cli.main(op.argv)
        else:
            with tracer.span("cli"):
                op.rc = cli.main(op.argv)
    except Exception:
        op.error = traceback.format_exc()
    op.seconds = time.perf_counter() - started


def _check_op(workload, op) -> bool:
    if op.error is not None:
        print(f"operation raised: {' '.join(op.argv)}\n{op.error}", file=sys.stderr)
        return False
    if op.rc != 0:
        print(f"exit code {op.rc}: {' '.join(op.argv)}", file=sys.stderr)
        return False
    try:
        workload.check(op)
    except Exception:
        # any error reading or checking an output fails that operation only
        print(f"check failed: {' '.join(op.argv)}\n{traceback.format_exc()}",
              file=sys.stderr)
        return False
    return True


def set_up(workload, tiny, seed: int, workdir: Path) -> None:
    """This run's first inputs plus a toy-sized warm-up call per op."""
    workload.cycle(seed, 0, workdir)
    for op in tiny.cycle(seed, 0, workdir):
        _run_op(op)
        if op.error is not None or op.rc != 0:
            raise RuntimeError(f"warm-up failed: {' '.join(op.argv)}\n{op.error}")


def time_set_up(name: str, seed: int, workdir: Path) -> list[float]:
    """Wall times of fresh processes that each import ctecs and set up.

    A fresh process pays every import and first-call cost, so work moved
    out of the timed loop into import or lazy initialisation shows here.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        repdir = workdir / f"setup{rep}"
        repdir.mkdir()
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--setup-only", str(repdir)],
            check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


def _probe_fixed_cost(table) -> float:
    """Median time of sample_alg_batch with zero samples on ``table``."""
    import numpy as np
    from ctecs import sampler

    if table is None:
        return 0.0
    times = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        sampler.sample_alg_batch(table, np.random.default_rng(0), 0)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def measure(workload, seed: int, seconds: float, workdir: Path, tracer=None):
    """Closed loop of whole cycles for up to ``seconds`` of measured time.

    A cycle starts only if the median cycle so far still fits; the first
    always runs.  Returns every op, each cycle's wall time, and (traced)
    each cycle's per-layer metrics.
    """
    ops, cycle_times, layers = [], [], []
    cycle = 0
    while True:
        cycle_ops = workload.cycle(seed, cycle, workdir)
        if tracer is not None:
            tracer.reset()
        for op in cycle_ops:
            _run_op(op, tracer)
        cycle_times.append(sum(op.seconds for op in cycle_ops))
        print(f"cycle {cycle}: {cycle_times[-1]:.3f} s, ops "
              f"{' '.join(f'{op.seconds:.3f}' for op in cycle_ops)}",
              file=sys.stderr)
        ops.extend(cycle_ops)
        if tracer is not None:
            tracer.recording = False
            table = tracer.last_table
            layers.append(layer_metrics(
                tracer.spans, tracer.stats, cycle_times[-1],
                _probe_fixed_cost(table),
                0 if table is None else len(table.masks),
                sum(op.output_bytes for op in cycle_ops)))
            tracer.recording = True
        cycle += 1
        if sum(cycle_times) + statistics.median(cycle_times) > seconds:
            return ops, cycle_times, layers


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def load_program() -> bool:
    """Import ctecs from the checkout's ``src/``; False if that fails."""
    if not (SRC / "ctecs" / "__init__.py").is_file():
        print(f"no ctecs sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import ctecs.cli
    if not Path(ctecs.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"ctecs imported from {ctecs.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def accuracy_of(ops) -> dict:
    """Worst value of each accuracy figure the checks recorded."""
    worst = {}
    for key in ACCURACY_UNITS:
        seen = [op.check[key] for op in ops if key in op.check]
        if seen:
            worst[key] = max(seen)
    return worst


def layer_values(layers: list[dict], ops) -> dict:
    """Median over traced cycles of each per-layer metric, plus the worst
    accuracy figures (0 where the workload has none)."""
    values = {name: statistics.median(cycle[name] for cycle in layers)
              for name in layers[0]}
    accuracy = accuracy_of(ops)
    for key in ACCURACY_UNITS:
        values[f"check.{key}"] = accuracy.get(key, 0.0)
    return values


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not load_program():
        return 2
    from workloads import TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload, tiny = WORKLOADS[args.workload], TINY[args.workload]
    if args.setup_only is not None:
        set_up(workload, tiny, args.seed, Path(args.setup_only))
        return 0

    work_root = ROOT / WORK_DIR
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        setups = time_set_up(args.workload, args.seed, workdir)
        print(f"set-up: {' '.join(f'{t:.3f}' for t in setups)} s",
              file=sys.stderr)
        set_up(workload, tiny, args.seed, workdir)

        if args.trace:
            with Tracer() as tracer:
                ops, cycle_times, layers = measure(
                    workload, args.seed, args.seconds, workdir, tracer)
        else:
            ops, cycle_times, layers = measure(
                workload, args.seed, args.seconds, workdir)
        peak_rss_mb = _peak_rss_mb()

        failed = sum(not _check_op(workload, op) for op in ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops)
    if args.trace:
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layer_values(layers, ops).items()}
        summary = dict(metrics)
    else:
        values = {"run_s": statistics.median(cycle_times),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}
        summary = dict(metrics)
        for key, value in accuracy_of(ops).items():
            summary[key] = {"value": value, "unit": ACCURACY_UNITS[key]}
    summary["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {len(cycle_times)}  ops {attempted}  "
          f"machine {json.dumps(machine_facts(), sort_keys=True)}")
    for name, metric in summary.items():
        print(f"  {name:38s} {_fmt(metric['value']):>14s} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
