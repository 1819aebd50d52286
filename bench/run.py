"""Benchmark of the subradiance package, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One workload runs in this process, from one thread, in a closed loop: the
next operation starts when the previous one has returned and its output has
been checked against closed forms (``checks.py``).  The loop runs whole
rounds of the seeded operation list until S seconds have passed and at
least MIN_OPS operations were timed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Set-up time is the median over SETUP_PROBES fresh processes that import
the package and build the operation list.  Results and spans are also
written under ``.bench_out/``.
"""

from __future__ import annotations

import os

# One thread: numpy's BLAS must not start a pool (set before numpy loads).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("store-bins", "qubit-long", "cli-batch", "rates-partitioned")
SETUP_PROBES = 7
# The 90th percentile needs at least ten operations beyond it.
MIN_OPS = 110

END_TO_END = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def run_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds(),
                        help="timed run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="build the operation list, print the clock, exit")
    return parser.parse_args(argv)


def prepare(workload: str, seed: int, workdir: str):
    """Import the package and build the operation list: the set-up."""
    sys.path.insert(0, SRC)
    import subradiance
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(subradiance.__file__))) != SRC:
        raise SystemExit(f"subradiance was imported from {subradiance.__file__}, not {SRC}")
    _, run, check = workloads.WORKLOADS[workload]
    return workloads.build(workload, seed, workdir), run, check


def measure_setup(args) -> list[float]:
    """Seconds from starting a fresh process to the end of its set-up;
    CLOCK_MONOTONIC is shared by all processes."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", "--workload",
             args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def run_loop(ops, run, check, seconds: float, min_ops: int, tracer=None) -> dict:
    """Whole rounds of ``ops`` until ``seconds`` have passed and ``min_ops``
    operations were timed; output checks run outside the timed region.
    Returns each round's operation times."""
    memo: dict = {}
    rounds: list[list[float]] = []
    failures: dict[int, tuple] = {}
    failed = 0
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds or \
            len(rounds) * len(ops) < min_ops:
        times = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = len(rounds) * len(ops) + i
            t0 = time.perf_counter()
            try:
                result = run(op)
            except Exception as exc:  # counted as a failed operation
                result, error = None, exc
            else:
                error = None
            times.append(time.perf_counter() - t0)
            if error is None:
                try:
                    problems = check(op, result, memo)
                except Exception as exc:  # a malformed output fails its check
                    problems = [f"checker raised {type(exc).__name__}: {exc}"]
            else:
                problems = [f"{type(error).__name__}: {error}"]
            if problems:
                failed += 1
                failures.setdefault(i, (op.kind, op.known_fault, problems[:3]))
        rounds.append(times)
    return {"rounds": rounds, "failed": failed, "failures": failures}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "subradiance")):
        print(f"error: package source {SRC}/subradiance not found", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.probe:
            prepare(args.workload, args.seed, workdir)
            print(repr(time.monotonic()))
            return 0
        setup = [] if args.trace else measure_setup(args)
        ops, run, check = prepare(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            units = tracing.LAYER_METRICS
        # one untimed round fills caches and lets the allocator settle
        run_loop(ops, run, check, 0.0, 0)
        if tracer is not None:
            tracer.spans.clear()
        res = run_loop(ops, run, check, args.seconds, MIN_OPS, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = [t for one in res["rounds"] for t in one]
    attempted = len(times)
    unexpected = 0
    for i, (kind, fault, problems) in sorted(res["failures"].items()):
        unexpected += fault is None
        print(f"failed op {i} ({kind}): {fault or 'UNEXPECTED'}: {'; '.join(problems)}",
              file=sys.stderr)
    if tracer is None:
        values = {
            "ops_per_s": attempted / sum(times),
            "op_ms_p50": statistics.median(times) * 1e3,
            "op_ms_p90": statistics.quantiles(times, n=10)[-1] * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        values = tracer.metrics(attempted)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": res["failed"],
              "metrics": metrics}

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "seed": args.seed, "seconds": args.seconds,
                   "round_s": [sum(one) for one in res["rounds"]],
                   "op_ms_median": [statistics.median(ts) * 1e3
                                    for ts in zip(*res["rounds"])],
                   "setup_probes_s": setup,
                   "absent": tracer.absent if tracer else []}, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
