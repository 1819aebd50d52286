"""End-to-end single-photon storage in orthogonal subradiant modes.

The ledger idealization: only the all-plus collective row couples to the
longitudinal field (rate 1/tau_R); every other sign row is perfectly dark.
A pulse mask is a norm-preserving relabeling of rows.  Residual subradiant
decay (the 1/(N-2)-suppressed rates) can be switched on as a uniform
amplitude loss for sensitivity studies; it defaults to zero.

A store and recall runs in stages (verify the write, write, verify the read
on the write's report, read, score): each plan is replayed once, the read
report fixes every slot's bin and sign, for active and passive plans alike,
and the stored amplitudes pass between stages as one vector, not a ledger.
The write is one call, ``dynamics._bins_from_zero``: the local law from
c = 0, restarting from 0 at every bin edge.  It is exact for a
piecewise-exponential packet (rectangular, rising exponential, time-bin
qubit, a recall fed back in), in O(pieces + bins) scalar steps.  For any
other it takes the input norm and each bin's captured amplitude (the RK4
sum sum_k A^(e-1-k) B[k]), photon number and int F from per-bin sums over
the node samples and the midpoints, with no per-step array; the RK4 scan
over every node runs only when the transmitted packet is read.  Read slots
decay freely; loss
and pulse failure are scalar factors, so stored and emitted amplitudes are
closed forms.  The report's ``transmitted`` and ``output`` packets are
sampled on their first read, O(samples) each, so a store and recall of a
piecewise-exponential packet that no caller samples costs O(pieces + bins)
and allocates no grid.
``ModeLedger.apply_mask`` is the mask-by-mask reference model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (_NODE_TOL, DEFAULT_STEPS_PER_TAU_R, TimeGrid, WavePacket,
                       _bins_from_zero, _exp_pieces, _lazy_packet, _shape_packet, make_grid)
from .errors import PlanError
from .params import EnsembleParams
from .schedule import (PlanReport, PulsePlan, _verify_read, _wrong_stage, plan_read,
                       plan_write, verify_plan)
from .states import SignPattern

__all__ = [
    "LedgerEntry",
    "ModeLedger",
    "ReadRecord",
    "StorageReport",
    "simulate_write",
    "simulate_read",
    "end_to_end",
    "timebin_qubit_fidelity",
    "timebin_qubit_report",
]


@dataclass
class LedgerEntry:
    bin_index: int
    # running mask product when parked; the entry is back on (minus) the
    # all-plus row once the ledger's running product equals (minus) it
    parked_product: np.ndarray
    amplitude: complex


@dataclass
class ModeLedger:
    """Stored subradiant amplitudes plus the field-coupled active amplitude."""

    parts: int
    entries: list[LedgerEntry] = field(default_factory=list)
    active_amplitude: complex = 0.0
    active_bin: int | None = None
    _product: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._product = np.ones(self.parts, dtype=np.int64)

    def stored_norm_sq(self) -> float:
        return sum(abs(e.amplitude) ** 2 for e in self.entries)

    def total_norm_sq(self) -> float:
        return self.stored_norm_sq() + abs(self.active_amplitude) ** 2

    def amplitudes_by_bin(self) -> dict[int, complex]:
        return {e.bin_index: e.amplitude for e in self.entries}

    def apply_mask(self, mask: SignPattern, capture_bin: int | None = None,
                   success_amplitude: float = 1.0) -> None:
        """Apply a 2 pi mask: park the active amplitude, and activate
        whichever stored row lands on (minus) the all-plus row."""
        m = np.array(mask.signs, dtype=np.int64)
        if len(m) != self.parts:
            raise PlanError("mask length does not match ledger parts")
        for e in self.entries:
            e.amplitude *= success_amplitude
        if self.active_amplitude != 0.0 or capture_bin is not None:
            bin_idx = capture_bin
            if bin_idx is None:
                bin_idx = self.active_bin if self.active_bin is not None else -1
            self.entries.append(LedgerEntry(
                bin_idx, self._product, self.active_amplitude * success_amplitude))
        self.active_amplitude = 0.0
        self.active_bin = None
        self._product = self._product * m
        parked = np.array([e.parked_product for e in self.entries],
                          dtype=np.int64).reshape(-1, self.parts)
        # a parked row radiates once the running product is plus or minus it
        plus = np.all(parked == self._product, axis=1)
        hot = np.flatnonzero(plus | np.all(parked == -self._product, axis=1))
        if len(hot) > 1:
            raise PlanError("mask made more than one row superradiant")
        if len(hot):
            e = self.entries.pop(hot[0])
            self.active_amplitude = complex(e.amplitude * (1 if plus[hot[0]] else -1))
            self.active_bin = e.bin_index


@dataclass(frozen=True)
class ReadRecord:
    """Per emitting read slot: its bin, the photon amplitude it emits and
    the amplitude still in the radiating row when the slot ends."""

    bins: tuple[int, ...]
    emitted: tuple[complex, ...]
    leftover: tuple[complex, ...]


@dataclass(frozen=True)
class StorageReport:
    """Scores of one store and recall.  ``output`` (the read-out, on the read
    grid) and ``transmitted`` (the field the write let through, on the input
    grid) are sampled on first read: a report whose packets nobody reads
    samples no grid."""

    write_efficiency: float
    read_efficiency: float
    total_efficiency: float
    captured: dict[int, complex]
    emitted: dict[int, complex]
    output: WavePacket
    transmitted: WavePacket
    fidelity: float | None
    bin_probability_error: float | None
    input_norm: float


def _bin_events(plan: PulsePlan) -> tuple[float, ...]:
    """The plan's last ``plan.bins`` event times: the write bins' ends or the
    read slots' starts (a passive write's opening closes no bin)."""
    return plan.times[len(plan.times) - plan.bins:]


def _bin_edges(grid: TimeGrid, plan: PulsePlan) -> list[int]:
    """Grid indices of the plan's bin events (``_bin_events``)."""
    times = _bin_events(plan)
    edges = grid.nodes_of(times).tolist()
    if -1 in edges:
        raise PlanError(f"plan events must sit on grid nodes: time "
                        f"{times[edges.index(-1)]} is not a node of this grid")
    for k in range(1, len(edges)):
        if edges[k] == edges[k - 1]:
            raise PlanError(f"plan events at {times[k - 1]} and {times[k]} fall on "
                            f"one grid node ({edges[k]}), leaving a bin empty")
    return edges


def _require_ok(report: PlanReport) -> PlanReport:
    if not report.ok:
        raise PlanError("plan failed verification: " + "; ".join(report.violations))
    return report


def simulate_write(
    f_in: WavePacket,
    plan: PulsePlan,
    p: EnsembleParams,
    loss_rate: float = 0.0,
    pulse_success_amplitude: float = 1.0,
) -> tuple[ModeLedger, WavePacket]:
    """Drive the ensemble with ``f_in`` while applying the write plan.

    A verified plan never turns a parked row superradiant again, so every
    bin starts from c = 0; bin n, captured as c_n at its edge t_n, is stored
    as c_n s^(bins-n+1) e^{-loss (T - t_n)/2} (s the pulse success amplitude,
    T the grid end; ``end_to_end`` charges the hold from T to the read).
    Returns the ledger of stored amplitudes and the transmitted (not
    absorbed) packet on the input grid, whose samples are built on first
    read.
    """
    report, stored, transmitted = _write(f_in, plan, p, loss_rate,
                                         pulse_success_amplitude)[:3]
    # bin n is parked under the final running product times its stored row
    ledger = ModeLedger(plan.parts, [LedgerEntry(n, row, a) for n, (row, a) in enumerate(
        zip(report._end * report._rows, stored.tolist()), start=1)])
    ledger._product = report._end
    return ledger, transmitted


def _write(f_in: WavePacket, plan: PulsePlan, p: EnsembleParams,
           loss_rate: float, pulse_success_amplitude: float,
           until: float | None = None):
    """Verify and write: the plan's report, the stored amplitudes (bin n at
    index n - 1), the transmitted packet, the input norm and the input's bin
    amplitudes; the store is held to ``until``, by default the grid's end."""
    if wrong := _wrong_stage(plan, "write"):
        raise PlanError(wrong)
    report = _require_ok(verify_plan(plan))
    grid = f_in.grid
    edges = _bin_edges(grid, plan)
    if edges and edges[0] == 0:
        raise PlanError("first write pulse coincides with the grid start")
    in_norm, c_nodes, captured, numbers, sums = _bins_from_zero(
        f_in, p, edges, _bin_events(plan))
    held = (grid.n_samples - 1 - np.array(edges)) * grid.dt
    # a time within _NODE_TOL dt of the grid's end is the end, as for grid nodes
    if until is not None and abs(until - grid.t_end) > _NODE_TOL * grid.dt:
        held += until - grid.t_end
    stored = (np.array(captured, dtype=complex)
              * np.exp(-loss_rate * held / 2.0)
              * pulse_success_amplitude ** np.arange(len(edges), 0, -1))
    bps = tuple(sorted(set(f_in.breakpoints) | set(plan.times)))
    gain = math.sqrt(p.tau_E / p.tau_R)

    def transmitted_samples():
        # output_field in place on a fresh c: F_out = F_in + sqrt(tau_E/tau_R) c
        out = c_nodes()
        out *= gain
        out += f_in.samples
        return out

    transmitted = _lazy_packet(grid, transmitted_samples, breakpoints=bps)
    # input bin n: sqrt of its photon number, with the phase of its flux
    f_bins = {n: math.sqrt(max(m, 0.0)) * (s / abs(s) if s else 1.0)
              for n, (s, m) in enumerate(zip(sums, numbers), start=1)}
    return report, stored, transmitted, in_norm, f_bins


def simulate_read(
    ledger: ModeLedger,
    plan: PulsePlan,
    p: EnsembleParams,
    loss_rate: float = 0.0,
    dt: float | None = None,
    write_plan: PulsePlan | None = None,
    pulse_success_amplitude: float = 1.0,
) -> tuple[WavePacket, ReadRecord]:
    """Release the amplitudes that ``simulate_write`` stored under
    ``write_plan`` (by default the active write plan of the same geometry).

    Slot k opens at t_k with the stored amplitude of bin ``emission_order[k]``
    times ``emission_signs[k]`` s^k e^{-loss (t_k - t_1)/2}, which radiates
    freely, F(t) = sqrt(tau_E/tau_R) a_k e^{-(t - t_k)/2tau_R}, until the
    next mask parks what is left of it back in a dark row.  The output's
    samples are built on first read; the read grid's size is checked at
    once.  The caller's ledger is left untouched.
    """
    if wrong := _wrong_stage(plan, "read"):
        raise PlanError(wrong)
    report = _require_ok(verify_plan(plan, write_plan))
    if not np.array_equal(ledger._product, report._end):
        raise PlanError("ledger was not written by the read plan's write plan")
    if dt is None:
        dt = p.tau_R / DEFAULT_STEPS_PER_TAU_R
    by_bin = ledger.amplitudes_by_bin()
    stored = np.array([by_bin.get(n, 0j) for n in range(1, plan.bins + 1)], dtype=complex)
    return _read(stored, report, plan, p, loss_rate, dt, pulse_success_amplitude)


def _read(stored: np.ndarray, report: PlanReport, plan: PulsePlan, p: EnsembleParams,
          loss_rate: float, dt: float, pulse_success_amplitude: float):
    t0 = plan.times[0]
    grid = make_grid(p, plan.t_end - t0, t0=t0, dt=dt)
    # the slot nodes' times, as grid.times holds them
    on = grid.t0 + grid.dt * np.array(_bin_edges(grid, plan))
    off = np.append(on[1:], grid.t_end)
    amps = (stored[np.array(report.emission_order, dtype=int) - 1]
            * np.array(report.emission_signs) * np.exp(-loss_rate * (on - on[0]) / 2.0)
            * pulse_success_amplitude ** np.arange(1, len(on) + 1))
    two_tr = 2.0 * p.tau_R
    emitted = amps * np.sqrt(1.0 - np.exp(-(off - on) / p.tau_R))
    leftover = amps * np.exp(-(off - on) / two_tr)
    # each emitting slot decays from its start until the next mask parks it
    live = np.flatnonzero(amps)
    edges = np.column_stack([on[live], off[live]]).ravel()
    slot_amps = np.column_stack([math.sqrt(p.tau_E / p.tau_R) * amps[live],
                                 np.zeros(len(live))]).ravel()
    shape = _exp_pieces(edges, slot_amps, np.tile([-two_tr, math.inf], len(live)),
                        edges)
    bps = tuple(edges.tolist())
    output = _lazy_packet(grid, lambda: shape(grid.times), shape, bps)
    return output, ReadRecord(tuple(report.emission_order[i] for i in live),
                              tuple(emitted[live].tolist()),
                              tuple(leftover[live].tolist()))


def end_to_end(
    f_in: WavePacket,
    write_plan: PulsePlan,
    read_plan: PulsePlan,
    p: EnsembleParams,
    loss_rate: float = 0.0,
    pulse_success_amplitude: float = 1.0,
) -> StorageReport:
    """Write ``f_in`` into subradiant modes, read it back, and score it.

    ``simulate_write`` charges loss up to its grid's end T and
    ``simulate_read`` from its first slot t_1 on; here the store is held to
    t_1 instead of T, an extra e^{-loss (t_1 - T)/2}.  So each bin is
    charged loss for exactly its hold time, from its end to its read slot,
    however far the input grid runs past the last write pulse or the read
    starts after it.  ``captured`` and ``write_efficiency`` are the store as
    of t_1.  A read that starts before the last write pulse is a PlanError.
    """
    slots = _bin_events(read_plan)
    # a read before the write's last pulse would be held for negative times
    if (slots and write_plan.times
            and slots[0] < write_plan.times[-1] - _NODE_TOL * f_in.grid.dt):
        raise PlanError(f"read starts at {slots[0]}, before the last write pulse at "
                        f"{write_plan.times[-1]}")
    wrep, stored, transmitted, in_norm, f_bins = _write(
        f_in, write_plan, p, loss_rate, pulse_success_amplitude,
        slots[0] if slots else None)
    rrep = _require_ok(_verify_read(read_plan, write_plan, wrep))
    output, record = _read(stored, rrep, read_plan, p, loss_rate, f_in.grid.dt,
                           pulse_success_amplitude)
    captured = dict(enumerate(stored.tolist(), start=1))
    stored_sq = sum(abs(a) ** 2 for a in captured.values())
    emitted_sq = sum(abs(e) ** 2 for e in record.emitted)

    fidelity = None
    bin_err = None
    if emitted_sq > 0 and in_norm > 0:
        # output and ideal recall share the free-decay kernel in every slot,
        # so both reduce to their per-slot photon amplitudes
        e = np.array(record.emitted, dtype=complex)
        f = np.array([f_bins.get(b, 0.0) for b in record.bins], dtype=complex)
        f_sq = np.vdot(f, f).real
        if f_sq > 0:
            fidelity = float(abs(np.vdot(f, e)) ** 2 / (f_sq * emitted_sq))
            probs_out = np.abs(e) ** 2
            probs_in = np.abs(f) ** 2
            bin_err = float(np.max(np.abs(probs_out / probs_out.sum()
                                          - probs_in / probs_in.sum())))

    emitted_by_bin = dict(zip(record.bins, record.emitted))
    return StorageReport(
        write_efficiency=stored_sq / in_norm if in_norm else 0.0,
        read_efficiency=emitted_sq / stored_sq if stored_sq else 0.0,
        total_efficiency=emitted_sq / in_norm if in_norm else 0.0,
        captured=captured,
        emitted=emitted_by_bin,
        output=output,
        transmitted=transmitted,
        fidelity=fidelity,
        bin_probability_error=bin_err,
        input_norm=in_norm,
    )


def _bin_grid(p: EnsembleParams, bin_duration: float, duration: float) -> TimeGrid:
    """Grid over [0, duration] whose step splits a bin into the whole number
    of steps nearest the default resolution (at least 40), so that every
    bin boundary lands exactly on a grid node."""
    steps = max(int(round(bin_duration / (p.tau_R / DEFAULT_STEPS_PER_TAU_R))), 40)
    return make_grid(p, duration, dt=bin_duration / steps)


def _timebin_setup(alpha: complex, beta: complex, separation: float,
                   p: EnsembleParams, time_reversed: bool):
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise PlanError("|alpha|^2 + |beta|^2 must be 1")
    if separation < 10.0 * p.tau_R:
        raise PlanError("time bins must be separated by at least 10 tau_R")
    t1, t2 = separation, 2.0 * separation
    grid = _bin_grid(p, separation, t2)
    # the late bin is the early packet delayed by one separation, truncated
    # to its own window so the bins stay orthogonal
    amp, two_tr = math.sqrt(p.tau_E / p.tau_R), 2.0 * p.tau_R
    shape = _exp_pieces([-math.inf, t1, t2], [alpha * amp, beta * amp, 0.0],
                        [two_tr, two_tr, math.inf], [t1, t2, t2])
    f_in = _shape_packet(grid, shape, (t1, t2))
    return f_in, plan_write(4, 2, separation), plan_read(
        4, 2, separation, time_reversed=time_reversed, t0=t2)


def timebin_qubit_report(
    alpha: complex,
    beta: complex,
    separation: float,
    p: EnsembleParams,
    time_reversed: bool = True,
    pulse_success_amplitude: float = 1.0,
) -> StorageReport:
    """Store and recall alpha|early> + beta|late> built from rising
    exponentials; each component is written with a single mask."""
    f_in, write, read = _timebin_setup(alpha, beta, separation, p, time_reversed)
    return end_to_end(f_in, write, read, p, 0.0, pulse_success_amplitude)


def timebin_qubit_fidelity(
    alpha: complex,
    beta: complex,
    separation: float,
    p: EnsembleParams,
    time_reversed: bool = True,
    pulse_success_amplitude: float = 1.0,
) -> float:
    """Squared overlap of the recalled time-bin qubit with the ideal one."""
    report = timebin_qubit_report(alpha, beta, separation, p, time_reversed,
                                  pulse_success_amplitude)
    return report.fidelity if report.fidelity is not None else 0.0
