"""Span tracing of the package's layers, from the benchmark's side.

``Tracer.install`` replaces every public function of each module (the
names in its ``__all__``; ``cli`` has none, so its public names) by a
wrapper, at every module attribute of the package that holds it: the
package itself and each module that imported it.  So a call from
``storage`` into ``dynamics.evolve_amplitude`` is seen as well as a call
from the benchmark.  Each call records a span: name, start, end, parent
span, operation id, minor page faults at both ends, and the work counts
that the layer metrics need.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("params", "dynamics", "states", "schedule", "storage", "threelevel", "cli")

# Per-layer metrics and their units; README.md says which end-to-end metric
# each should move, on which workload.
LAYER_METRICS = {
    "params.derive_ms": "ms",
    "schedule.plan_ms": "ms",
    "schedule.verify_ms": "ms",
    "schedule.verify_calls": "count",
    "dynamics.evolve_ms": "ms",
    "dynamics.evolve_steps": "count",
    "dynamics.quad_ms": "ms",
    "dynamics.quad_samples": "count",
    "dynamics.faults": "count",
    "dynamics.other_ms": "ms",
    "storage.write_ms": "ms",
    "storage.read_ms": "ms",
    "storage.read_slots": "count",
    "storage.read_samples": "count",
    "storage.score_ms": "ms",
    "storage.faults": "count",
    "storage.qubit_ms": "ms",
    "states.enumerate_ms": "ms",
    "states.enumerated": "count",
    "states.kept": "count",
    "states.kept_ratio": "ratio",
    "states.rate_ms": "ms",
    "states.oracle_ms": "ms",
    "threelevel.pulse_ms": "ms",
    "cli.self_ms": "ms",
    "cli.emit_ms": "ms",
}

# Names the metrics depend on; a missing one is reported, not fatal.
EXPECTED = (
    "params.derive_params", "schedule.plan_write", "schedule.plan_read",
    "schedule.verify_plan", "dynamics.evolve_amplitude", "dynamics.packet_norm",
    "dynamics.packet_overlap", "storage.simulate_write", "storage.simulate_read",
    "storage.end_to_end", "states.symmetric_partitioned", "states.emission_rate",
    "states.brute_force_rate", "states.to_full_basis", "threelevel.pulse_outcome",
    "cli.main", "cli.emit_json",
)


# Span name -> self-time metric; other spans of a layer go to its default
# below, so every span's self time is counted once.
SELF_TIME = {
    "dynamics.evolve_amplitude": "dynamics.evolve_ms",
    "dynamics.packet_norm": "dynamics.quad_ms",
    "dynamics.packet_overlap": "dynamics.quad_ms",
    "dynamics.check_single_photon_norm": "dynamics.quad_ms",
    "storage.simulate_write": "storage.write_ms",
    "storage.simulate_read": "storage.read_ms",
    "storage.end_to_end": "storage.score_ms",
    "states.symmetric_partitioned": "states.enumerate_ms",
    "states.brute_force_rate": "states.oracle_ms",
    "states.to_full_basis": "states.oracle_ms",
    "states.symmetric_state": "states.oracle_ms",
    "cli.emit_json": "cli.emit_ms",
}
LAYER_SELF_TIME = {"params": "params.derive_ms", "schedule": "schedule.plan_ms",
                   "dynamics": "dynamics.other_ms", "storage": "storage.qubit_ms",
                   "states": "states.rate_ms", "threelevel": "threelevel.pulse_ms",
                   "cli": "cli.self_ms"}


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _quad_samples(args, kwargs, result):
    return {"dynamics.quad_samples": _arg(args, kwargs, 0, "f").grid.n_samples}


def _enumerated(args, kwargs, result):
    n = _arg(args, kwargs, 0, "n")
    sizes = _arg(args, kwargs, 1, "partition").part_sizes
    return {"states.enumerated": math.prod(min(n, s) + 1 for s in sizes),
            "states.kept": len(result.amplitudes)}


# Work counts taken from a call's arguments and result.
COUNTERS = {
    "dynamics.evolve_amplitude": lambda a, k, r: {
        "dynamics.evolve_steps": _arg(a, k, 0, "f_in").grid.n_samples - 1},
    "dynamics.packet_norm": _quad_samples,
    "dynamics.packet_overlap": _quad_samples,
    "storage.simulate_read": lambda a, k, r: {
        "storage.read_slots": len(r[1].bins), "storage.read_samples": r[0].grid.n_samples},
    "states.symmetric_partitioned": _enumerated,
}


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@dataclass
class Tracer:
    # span: [name, start, end, parent, op, faults_start, faults_end, counts]
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    op_id: int = -1
    absent: list = field(default_factory=list)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[5] = _minflt()
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[6] = _minflt()
                stack.pop()
            if counter is not None:
                rec[7] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer at every module
        attribute of the package that refers to them."""
        modules = {layer: importlib.import_module(f"subradiance.{layer}") for layer in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [
                n for n, v in vars(mod).items()
                if not n.startswith("_") and getattr(v, "__module__", None) == mod.__name__]
            for n in names:
                fn = getattr(mod, n, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[fn] = self._wrap(f"{layer}.{n}", fn)
        for expected in EXPECTED:
            layer, n = expected.split(".")
            if not inspect.isfunction(getattr(modules[layer], n, None)):
                self.absent.append(expected)
                print(f"trace: {expected} is absent; its metrics read 0", file=sys.stderr)
        holders = [sys.modules["subradiance"], *modules.values()]
        for mod in holders:
            for n, v in list(vars(mod).items()):
                if inspect.isfunction(v) and v in targets:
                    setattr(mod, n, targets[v])

    def metrics(self, n_ops: int) -> dict:
        """Per-operation layer metrics: self times (span minus its child
        spans), work counts and self page faults."""
        child_time = [0.0] * len(self.spans)
        child_faults = [0] * len(self.spans)
        for name, t0, t1, parent, _op, f0, f1, _c in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
                child_faults[parent] += f1 - f0
        totals = dict.fromkeys(LAYER_METRICS, 0.0)
        for i, (name, t0, t1, parent, _op, f0, f1, counts) in enumerate(self.spans):
            layer = name.split(".")[0]
            key = SELF_TIME.get(name, LAYER_SELF_TIME[layer])
            if layer == "schedule" and (name == "schedule.verify_plan"
                                        or self._under(i, "schedule.verify_plan")):
                key = "schedule.verify_ms"
            totals[key] += (t1 - t0 - child_time[i]) * 1e3
            if layer in ("dynamics", "storage"):
                totals[f"{layer}.faults"] += f1 - f0 - child_faults[i]
            if name == "schedule.verify_plan":
                totals["schedule.verify_calls"] += 1
            for metric, v in (counts or {}).items():
                totals[metric] += v
        out = {k: v / n_ops for k, v in totals.items()}
        out["states.kept_ratio"] = (totals["states.kept"] / totals["states.enumerated"]
                                    if totals["states.enumerated"] else 0.0)
        return out

    def _under(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path: str) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op",
                                 "minflt_start", "minflt_end", "counts"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
