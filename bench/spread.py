"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b]

Runs ``bench/run.py`` once per seed and workload, one run at a time, and
prints per metric the median, the quartiles (``statistics.quantiles``,
n=4) and their distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  Also reports the failed share of each run,
which must be the same in every run of a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed)],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.setdefault(workload, []).append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)

    for workload, results in runs.items():
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: failed share {shares}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:24s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
