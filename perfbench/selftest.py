"""Self-test of the benchmark, at toy sizes so it ends in seconds.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it runs one cycle of the toy-sized variant untraced and
one traced, at the same seed, and checks that

- every operation passes the workload's output check;
- the traced run writes byte-identical coefficient tables and sample
  files, so the wrappers change no result;
- the traced run yields every per-layer metric the benchmark declares.

Exit code 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

SEED = 7


def _result_bytes(op) -> list[bytes]:
    """The outputs that must not depend on tracing: tables and samples."""
    out = []
    with open(op.outputs["report"]) as handle:
        report = json.load(handle)
    if "table" in report:
        out.append(json.dumps(report["table"], sort_keys=True).encode())
    if "samples" in op.outputs:
        out.append(op.outputs["samples"].read_bytes())
    return out


def main() -> int:
    if not run.load_program():
        return 2
    from tracing import LAYER_UNITS, Tracer
    from workloads import TINY

    problems = []
    work_root = run.ROOT / run.WORK_DIR
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        for name, tiny in TINY.items():
            results = []
            for traced in (False, True):
                rundir = workdir / f"{name}-{int(traced)}"
                rundir.mkdir()
                if traced:
                    with Tracer() as tracer:
                        ops, _, layers = run.measure(tiny, SEED, 0.0, rundir,
                                                     tracer)
                    missing = set(LAYER_UNITS) - set(run.layer_values(layers, ops))
                    if missing:
                        problems.append(f"{name}: no value for {sorted(missing)}")
                else:
                    ops, _, _ = run.measure(tiny, SEED, 0.0, rundir)
                if not all(run._check_op(tiny, op) for op in ops):
                    problems.append(f"{name}: an output check failed "
                                    f"({'traced' if traced else 'untraced'})")
                    break
                results.append([_result_bytes(op) for op in ops])
            if len(results) == 2 and results[0] != results[1]:
                problems.append(f"{name}: traced and untraced outputs differ")
            print(f"{name}: {len(ops)} ops checked")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
