"""Run the benchmark over several seeds and record the results.

Run from the root of a checkout:

    python3 perfbench/record.py --seeds 1-10 --seconds 30 --out result.json
    python3 perfbench/record.py --workloads walk-n20 --seeds 3,4 --trace 1 --out t.json

Each run is a separate ``perfbench/run.py`` process, one after another.
The output holds the machine facts, every run's result line, and per
workload and metric the median and the quartile spread (the distance
between the first and third quartile as a share of the median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update({"q1": q1, "q3": q3,
                    "spread": (q3 - q1) / median if median else 0.0})
    return out


def main(argv=None) -> int:
    if not run.load_program():
        return 2
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    result = {"machine": run.machine_facts(), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(lines[-1])
            line["seed"] = seed
            line["wall_s"] = time.perf_counter() - started
            runs.append(line)
            shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                              for k, v in line["metrics"].items())
            print(f"{workload} seed {seed} ({line['wall_s']:.0f} s wall): "
                  f"{shown}", flush=True)
        names = runs[0]["metrics"]
        result["workloads"][workload] = {
            "runs": runs,
            "correct": all(r["correct"] for r in runs),
            "metrics": {name: {"unit": runs[0]["metrics"][name]["unit"],
                               **summarize([r["metrics"][name]["value"]
                                            for r in runs])}
                        for name in names},
        }
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
