"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the root of a checkout:

    python3 perfbench/spread.py --workload corner_study --seeds 10

Runs ``perfbench/run.py`` once per seed (seeds 0, 1, ...), each in a fresh
process, and prints for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the bound in ``BENCHMARK.json``. The raw results go to
``.perfbench_run/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("quartiles need at least two runs (--seeds 2)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in range(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
            timeout=200)
        took = time.monotonic() - start
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["run_s"] = seed, took
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {took:.1f} s, failed {result['failed']}/"
              f"{result['attempted']}, correct {result['correct']}, {values}",
              flush=True)

    print(f"{args.workload}: {len(runs)} runs, "
          f"{sum(r['run_s'] for r in runs):.0f} s in total")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        print(f"  {name:12s} median {median:.4f}  Q1 {q1:.4f}  Q3 {q3:.4f}  "
              f"spread {spread:.4f}  bound {bound}  "
              f"{'ok' if spread < bound / 3 else 'ABOVE A THIRD OF THE BOUND'}")
    path = os.path.join(ROOT, ".perfbench_run", f"spread-{args.workload}.json")
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
