"""Reference figures: best-of-N wall times of single calls at fixed sizes.

    python3 bench/reference.py

Times ``end_to_end`` at 4/16/64/256 parts (bins = parts - 1, 2.5 tau_R
each), ``evolve_amplitude`` at 1e4/1e5/1e6 steps, ``verify_plan`` on write
plans of 64/256 parts, ``symmetric_partitioned`` at n = 2 over 8/10/12
parts, and the CLI ``store`` scenario as a fresh process, interpreter start
included.  Prints a table and writes it as JSON to
``.bench_out/reference.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out", "reference.json")
sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import subradiance as sr  # noqa: E402
import workloads  # noqa: E402


def best_of(fn, n: int) -> float:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    p = sr.derive_params(sr.EnsembleInput(**workloads.CRYSTAL))
    rows = []

    for parts in (4, 16, 64, 256):
        bin_d = 2.5 * p.tau_R
        write = sr.plan_write(parts, parts - 1, bin_d)
        read = sr.plan_read(parts, parts - 1, bin_d, time_reversed=True, t0=write.t_end)
        photon = sr.rectangular_packet(p, sr.make_grid(p, write.t_end), (parts - 1) * bin_d)
        report = sr.end_to_end(photon, write, read, p)
        rows.append(("end_to_end", f"{parts} parts",
                     best_of(lambda: sr.end_to_end(photon, write, read, p), 1 if parts > 64 else 3),
                     f"total_efficiency {report.total_efficiency:.14f}"))

    for steps in (10**4, 10**5, 10**6):
        grid = sr.make_grid(p, steps * p.tau_R / 200)
        packet = sr.rectangular_packet(p, grid, grid.t_end / 2)
        rows.append(("evolve_amplitude", f"{steps:.0e} steps",
                     best_of(lambda: sr.evolve_amplitude(packet, 0.0, p), 3), ""))

    for parts in (64, 256):
        plan = sr.plan_write(parts, parts - 1, 1e-6)
        rows.append(("verify_plan", f"write, {parts} parts",
                     best_of(lambda: sr.verify_plan(plan), 3), ""))

    for parts in (8, 10, 12):
        part = sr.Partition.equal(2 * parts, parts)
        rows.append(("symmetric_partitioned", f"n=2, {parts} parts",
                     best_of(lambda: sr.symmetric_partitioned(2, part), 3),
                     f"{3 ** parts} tuples enumerated"))

    cfg = {"scenario": "store", "ensemble": workloads.CRYSTAL,
           "schedule": {"parts": 4, "bins": 3, "bin_duration": "2.5 tau_R",
                        "time_reversed": True}}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(OUT)) as tmp:
        path = os.path.join(tmp, "store.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        env = {**os.environ, "PYTHONPATH": SRC}

        def cli_store():
            subprocess.run([sys.executable, "-m", "subradiance.cli", "--config", path,
                            "--quiet"], check=True, capture_output=True, env=env)

        rows.append(("CLI store", "4 parts, fresh process", best_of(cli_store, 5), ""))

    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": np.__version__, "scipy": scipy.__version__}
    print(json.dumps(machine))
    for what, size, seconds, note in rows:
        print(f"{what:22s} {size:22s} {seconds * 1e3:10.1f} ms  {note}")
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "rows": [
            {"what": w, "size": s, "seconds": t, "note": n} for w, s, t, n in rows]},
            fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
