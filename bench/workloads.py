"""Seeded operation lists for the four workloads, and how to run and check
one operation.

Every list is a fixed design of operation sizes; the seed draws the
physics inputs (amplitudes, qubit states, sign patterns, ensembles, loss,
pulse failure, read direction).  So the work in one round, and the order
in which memory is allocated, are the same for every seed while the inputs
are not.  The operations that fail because of known faults use inputs that do not
depend on the seed.

Operations reach the program only through the ``subradiance`` package's
public names, looked up at call time so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import subradiance as sr
from subradiance import cli

import checks

# The default grid resolves tau_R in this many steps (``make_grid``).
STEPS_PER_TAU_R = 200

CRYSTAL = {"wavelength": 606e-9, "sample_length": 5e-3, "excited_lifetime": 164e-6,
           "beam_diameter": 100e-6, "atom_count": 1e7}

# Known faults that make an operation fail every time.
EMPTY_BIN_FAULT = "storage._ideal_recall misaligns slots after an exactly empty interior bin"
SAMPLED_FAULT = "dynamics._segment_bounds drops the closing breakpoint of a sampled bin"
EDGE_NODE_FAULT = ("rectangular_packet stores the left-sided value on a node whose grid "
                   "time rounds below the packet's end")


@dataclass
class Op:
    kind: str
    inputs: dict
    known_fault: str | None = None


def _ensemble(rng) -> dict:
    return {"wavelength": 606e-9, "sample_length": 5e-3, "excited_lifetime": 164e-6,
            "beam_diameter": float(f"{rng.uniform(80e-6, 120e-6):.6g}"),
            "atom_count": float(f"{rng.uniform(5e6, 5e7):.6g}"),
            "inhomogeneous_linewidth": 1e5}


def _bloch(rng) -> tuple[complex, complex]:
    theta = math.acos(1.0 - 2.0 * rng.uniform())
    phi = 2.0 * math.pi * rng.uniform()
    beta = complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)
    return complex(math.cos(theta / 2.0)), beta


def _unit_complex(rng, size: int) -> np.ndarray:
    a = rng.normal(size=size) + 1j * rng.normal(size=size)
    return a / np.linalg.norm(a)


# ---------------------------------------------------------------------------
# store-bins
# ---------------------------------------------------------------------------

# (parts, bins, grid steps per bin, lossy, pulse failure); bins lie in
# [parts/2, parts-1] and last 1 to 4 tau_R.  Read-out and scoring cost grows
# as bins x samples.  The median and the 90th percentile of a round's
# operation times fall inside runs of four equal-size cells, so they do not
# jump between sizes from run to run.
STORE_CELLS = (
    (32, 17, 250, False, False), (32, 17, 250, True, True),
    (32, 17, 650, True, False), (32, 22, 280, False, True),
    (32, 26, 250, True, True), (64, 33, 250, False, False),
    (32, 22, 500, False, False),
    *[(64, 34, 320, lossy, pulsed) for lossy, pulsed in
      ((False, False), (True, False), (False, True), (False, False))],
    (32, 26, 520, False, False), (64, 40, 240, False, True),
    (64, 46, 220, False, False), (32, 30, 500, True, False),
    (64, 55, 210, True, True),
    *[(64, 61, 205, lossy, pulsed) for lossy, pulsed in
      ((False, False), (True, True), (False, True), (False, False))],
)


def _store_op(parts, bins, m, amps, reversed_, ensemble, loss_tr=0.0, success=1.0,
              sampled=False, known_fault=None) -> Op:
    return Op("store-sampled" if sampled else "store", {
        "parts": parts, "bins": bins, "m": m, "amps": np.asarray(amps, dtype=complex),
        "reversed": reversed_, "ensemble": ensemble, "loss_tr": loss_tr,
        "success": success, "sampled": sampled}, known_fault)


def build_store_bins(rng) -> list[Op]:
    ops = []
    for parts, bins, m, lossy, pulsed in STORE_CELLS:
        ops.append(_store_op(
            parts, bins, m, _unit_complex(rng, bins),
            bool(rng.integers(2)), _ensemble(rng),
            loss_tr=float(rng.uniform(0.002, 0.02)) if lossy else 0.0,
            success=float(rng.uniform(0.98, 0.999)) if pulsed else 1.0))
    # Fixed inputs for the two known faults: a sparse pattern with exactly
    # empty interior bins, and a packet given only as samples.
    sparse = np.zeros(16, dtype=complex)
    sparse[[0, 3, 8, 15]] = np.array([1, 1j, -1, -1j]) / 2.0
    ops.append(_store_op(32, 16, 500, sparse, True, CRYSTAL,
                         known_fault=EMPTY_BIN_FAULT))
    ops.append(_store_op(32, 16, 200, np.exp(2j * np.pi * np.arange(16) / 16) / 4.0,
                         False, CRYSTAL, sampled=True, known_fault=SAMPLED_FAULT))
    return ops


def _piecewise_packet(grid, amps, m: int, p, sampled: bool):
    """Piecewise-constant packet with photon amplitude amps[n] in bin n,
    each bin m grid steps long; node samples hold the right-sided value."""
    bins = len(amps)
    t_bin = m * grid.dt
    level = amps * math.sqrt(p.tau_E / t_bin)
    idx = np.arange(grid.n_samples) // m
    samples = np.where(idx < bins, level[np.minimum(idx, bins - 1)], 0.0)
    edges = tuple(k * t_bin for k in range(bins + 1))
    if sampled:
        return sr.packet_from_samples(grid, samples, breakpoints=edges)

    def shape(t):
        k = np.floor((np.asarray(t, dtype=float) - grid.t0) / t_bin).astype(np.int64)
        return np.where((k >= 0) & (k < bins), level[np.clip(k, 0, bins - 1)], 0.0)

    return sr.WavePacket(grid, samples, shape=shape, breakpoints=edges)


def run_store(op: Op):
    x = op.inputs
    p = sr.derive_params(sr.EnsembleInput(**x["ensemble"]))
    t_bin = x["m"] * (p.tau_R / STEPS_PER_TAU_R)
    write = sr.plan_write(x["parts"], x["bins"], t_bin)
    read = sr.plan_read(x["parts"], x["bins"], t_bin, time_reversed=x["reversed"],
                        t0=write.t_end)
    grid = sr.make_grid(p, write.t_end)
    packet = _piecewise_packet(grid, x["amps"], x["m"], p, x["sampled"])
    return sr.end_to_end(packet, write, read, p, loss_rate=x["loss_tr"] / p.tau_R,
                         pulse_success_amplitude=x["success"])


def check_store(op: Op, report, memo) -> list[str]:
    x = op.inputs
    tb = x["m"] / STEPS_PER_TAU_R
    want = checks.expected_recall(list(x["amps"]), checks.rect_capture_gain(tb),
                                  checks.emit_gain(tb), x["reversed"], x["success"],
                                  x["loss_tr"] * tb)
    return checks.check_recall(report, want)


# ---------------------------------------------------------------------------
# qubit-long
# ---------------------------------------------------------------------------

# (separation in tau_R, fixed BB84 state or None for a random Bloch state,
# pulse failure); 100-400 tau_R is 20k-80k grid steps per bin.  Runs of
# four equal separations hold the median and the 90th percentile.
_H = 1.0 / math.sqrt(2.0)
QUBIT_CELLS = (
    (100, (1.0, 0.0), False), (100, (0.0, 1.0), True),
    (150, (_H, _H), True), (150, (_H, -_H), False),
    (200, None, False), (200, None, True), (200, None, False), (200, None, False),
    (400, None, True), (400, None, False), (400, None, True), (400, None, False),
)


def build_qubit_long(rng) -> list[Op]:
    ops = []
    for sep, state, pulsed in QUBIT_CELLS:
        if state is None:
            state = _bloch(rng)
        ops.append(Op("qubit", {
            "alpha": complex(state[0]), "beta": complex(state[1]),
            "separation": sep,
            "reversed": bool(rng.integers(2)), "ensemble": _ensemble(rng),
            "success": float(rng.uniform(0.95, 0.999)) if pulsed else 1.0}))
    return ops


def run_qubit(op: Op):
    x = op.inputs
    p = sr.derive_params(sr.EnsembleInput(**x["ensemble"]))
    return sr.timebin_qubit_report(x["alpha"], x["beta"], x["separation"] * p.tau_R, p,
                                   time_reversed=x["reversed"],
                                   pulse_success_amplitude=x["success"])


def check_qubit(op: Op, report, memo) -> list[str]:
    x = op.inputs
    want = checks.expected_qubit(x["alpha"], x["beta"], x["separation"], x["reversed"],
                                 x["success"])
    return checks.check_recall(report, want)


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

def _end_node_rounds_below(ens: dict, x: float) -> bool:
    """Whether the grid node at the end of an x tau_R packet starting at 0
    lies below x tau_R in floating point (grid step tau_R/200)."""
    tau_r = checks.ensemble_params(ens)["tau_R"]
    return (tau_r / STEPS_PER_TAU_R) * round(x * STEPS_PER_TAU_R) < x * tau_r


def _scatter_config(ensemble: dict, x: float) -> dict:
    return {"scenario": "scatter", "ensemble": ensemble,
            "input": {"kind": "rectangular", "duration": f"{x} tau_R",
                      "grid_duration": "6 tau_R"}}


# A 1 tau_R scatter on an ensemble whose grid node at the packet's end
# rounds below it: the known EDGE_NODE_FAULT, the same in every round.
EDGE_NODE_CONFIG = _scatter_config(
    {**CRYSTAL, "beam_diameter": 102.802e-6, "atom_count": 39512900.0}, 1.0)


def _cli_configs(rng) -> list[tuple[dict, tuple[str, list[float]] | None]]:
    """One config per scenario slot, each with an optional sweep."""
    def ens():
        return _ensemble(rng)

    def g6(x):
        return float(f"{x:.6g}")

    def store(parts, bins, x, **extra):
        return {"scenario": "store", "ensemble": ens(), **extra,
                "schedule": {"parts": parts, "bins": bins, "bin_duration": f"{x} tau_R",
                             "time_reversed": bool(rng.integers(2))}}

    def qubit(sep, pf=0.0):
        a, b = _bloch(rng)
        return {"scenario": "qubit", "ensemble": ens(),
                "qubit": {"alpha_re": a.real, "alpha_im": a.imag, "beta_re": b.real,
                          "beta_im": b.imag, "separation": f"{sep} tau_R",
                          "time_reversed": bool(rng.integers(2)), "pulse_failure": pf}}

    def schedule(parts, bins, passive):
        return {"scenario": "schedule", "ensemble": ens(),
                "schedule": {"parts": parts, "bins": bins, "bin_duration": "2.5 tau_R",
                             "passive": passive, "time_reversed": bool(rng.integers(2))}}

    def scatter(x):
        # a seeded ensemble on which the packet's end node does not round
        # below the end; that case is EDGE_NODE_CONFIG
        ensemble = ens()
        while _end_node_rounds_below(ensemble, x):
            ensemble = ens()
        return _scatter_config(ensemble, x)

    def threelevel():
        init = rng.normal(size=3)
        init /= np.linalg.norm(init)
        return {"scenario": "threelevel", "ensemble": ens(),
                "threelevel": {"g_a": g6(rng.uniform(0.5, 2.0)),
                               "g_b": g6(rng.uniform(0.5, 2.0)),
                               "alpha_re": g6(rng.uniform(-10, 10)),
                               "alpha_im": g6(rng.uniform(-10, 10)),
                               "initial": [float(v) for v in init]}}

    def rates(n_atoms, names):
        return {"scenario": "rates", "ensemble": ens(),
                "states": {"atom_count": n_atoms, "names": names}}

    all_names = list(checks.named_state_rates(8))
    tau_r_params = {"scenario": "params", "ensemble": ens()}
    tau_r_params["target_tau_R"] = g6(rng.uniform(0.5, 2.0) * checks.ensemble_params(
        tau_r_params["ensemble"])["tau_R"])
    sweep_n = [g6(v) for v in rng.uniform(1e6, 1e8, size=3)]
    lossy = ens()
    loss = g6(rng.uniform(0.002, 0.05) / checks.ensemble_params(lossy)["tau_R"])
    sweep_loss = [0.0, g6(rng.uniform(0.002, 0.05) / checks.ensemble_params(lossy)["tau_R"])]
    # By cost: seven configs under 3 ms; six of 5-6 ms (four equal stores,
    # the 8-part store, the 16-part schedule) around the median; the swept
    # store, four equal qubits and the three scatters (with EDGE_NODE_CONFIG)
    # of 10-14 ms around the 90th percentile of a round's operation times.
    return [
        (tau_r_params, None),
        ({"scenario": "params", "ensemble": ens()}, ("ensemble.atom_count", sweep_n)),
        (threelevel(), None),
        (threelevel(), None),
        (rates(8, all_names), None),
        (rates(16, all_names), None),
        (schedule(8, 7, True), None),
        (schedule(16, 15, False), None),
        (store(4, 3, 2.5), None),
        ({**store(4, 3, 2.5), "ensemble": lossy, "loss_rate": loss}, None),
        (store(4, 3, 2.5, pulse_failure=g6(rng.uniform(0.001, 0.05))), None),
        (store(4, 3, 2.5), None),
        (store(8, 4, 1.5), None),
        ({**store(4, 3, 2.5), "ensemble": lossy}, ("loss_rate", sweep_loss)),
        *[(scatter(x), None) for x in rng.choice([1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0], size=2)],
        (qubit(16), None),
        (qubit(16, pf=g6(rng.uniform(0.001, 0.05))), None),
        (qubit(16), None),
        (qubit(16, pf=g6(rng.uniform(0.001, 0.05))), None),
    ]


def build_cli_batch(rng, workdir: str) -> list[Op]:
    """Each config is run twice per round, the second time checking that
    the report bytes repeat; the last config is EDGE_NODE_CONFIG."""
    configs = [(cfg, sweep, None) for cfg, sweep in _cli_configs(rng)]
    configs.append((EDGE_NODE_CONFIG, None, EDGE_NODE_FAULT))
    ops = []
    for i, (cfg, sweep, fault) in enumerate(configs):
        path = os.path.join(workdir, f"config-{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        argv = ["--config", path, "--quiet"]
        if sweep is not None:
            argv += ["--sweep", f"{sweep[0]}=" + ",".join(repr(v) for v in sweep[1])]
        ops.append(Op("cli", {"id": i, "cfg": cfg, "sweep": sweep, "argv": argv,
                              "repeat": False}, fault))
    return ops + [Op("cli", {**o.inputs, "repeat": True}) for o in ops]


def run_cli(op: Op):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op.inputs["argv"])
    return code, out.getvalue(), err.getvalue()


def check_cli(op: Op, result, memo) -> list[str]:
    code, text, err = result
    x = op.inputs
    if x["repeat"]:
        return checks.check_repeat(memo.pop(x["id"], ""), text)
    memo[x["id"]] = text
    problems = checks.check_cli(x["cfg"], x["sweep"], code, text)
    return problems + ([f"stderr: {err.strip()[:200]}"] if code else [])


# ---------------------------------------------------------------------------
# rates-partitioned
# ---------------------------------------------------------------------------

# (n, parts, atoms for the full-basis oracle or None).  Enumeration visits
# prod_P (min(n, N_P) + 1) tuples; without the oracle N_P >= n is drawn, so
# the count is (n + 1)^parts whatever the seed.  Runs of equal cells hold
# the median and the 90th percentile of a round's operation times.
RATE_CELLS = (
    (1, 8, None), (1, 10, None), (1, 12, None), (2, 8, None), (3, 8, 8), (2, 12, 12),
    (2, 10, None), (2, 10, None), (2, 10, None), (2, 10, None),
    (1, 8, 16), (2, 8, 16), (3, 9, None),
    (2, 12, None), (2, 12, None), (2, 12, None),
)


def build_rates_partitioned(rng) -> list[Op]:
    ops = []
    for n, parts, oracle_atoms in RATE_CELLS:
        atoms = oracle_atoms or parts * int(rng.integers(n, n + 31))
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=parts))
        ops.append(Op("rates", {"n": n, "parts": parts, "atoms": atoms, "signs": signs,
                                "oracle": oracle_atoms is not None,
                                "ensemble": _ensemble(rng)}))
    return ops


def run_rates(op: Op):
    x = op.inputs
    p = sr.derive_params(sr.EnsembleInput(**x["ensemble"]))
    state = sr.symmetric_partitioned(x["n"], sr.Partition.equal(x["atoms"], x["parts"]))
    signed = sr.apply_sign_pattern(state, sr.SignPattern(x["signs"]))
    unit = p.mu / p.excited_lifetime
    oracle = None
    if x["oracle"]:
        oracle = sr.brute_force_rate(sr.to_full_basis(signed), p) / unit
    return (state.amplitudes, sr.emission_rate(state, p) / unit,
            sr.emission_rate(signed, p) / unit, oracle)


def check_rates(op: Op, result, memo) -> list[str]:
    x = op.inputs
    sizes = (x["atoms"] // x["parts"],) * x["parts"]
    return checks.check_partitioned(x["n"], sizes, x["signs"], *result)


WORKLOADS = {
    "store-bins": (build_store_bins, run_store, check_store),
    "qubit-long": (build_qubit_long, run_qubit, check_qubit),
    "cli-batch": (build_cli_batch, run_cli, check_cli),
    "rates-partitioned": (build_rates_partitioned, run_rates, check_rates),
}


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    builder = WORKLOADS[workload][0]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    if workload == "cli-batch":
        return builder(rng, workdir)
    return builder(rng)
