"""End-to-end single-photon storage in orthogonal subradiant modes.

The ledger idealization: only the all-plus collective row couples to the
longitudinal field (rate 1/tau_R); every other sign row is perfectly dark.
A pulse mask is a norm-preserving relabeling of rows.  Residual subradiant
decay (the 1/(N-2)-suppressed rates) can be switched on as a uniform
amplitude loss for sensitivity studies; it defaults to zero.

``verify_plan`` is the only replay of the sign algebra: it fixes every read
slot's bin and sign, for active and passive plans alike.  The write samples
the input once: its cell values give the photon number per grid step (input
norm, one-photon check, bin norms) and the RK4 forcing on which every bin
integrates the local law from zero.  Read slots decay freely; loss and pulse
failure are scalar factors, so stored and emitted amplitudes are closed
forms.  ``ModeLedger.apply_mask`` is the mask-by-mask reference model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (DEFAULT_STEPS_PER_TAU_R, AmplitudeTrajectory,
                       TimeGrid, WavePacket, _cell_values, _exp_pieces,
                       _node_samples, _photon_density, _require_one_photon,
                       _rk4_forcing, _rk4_recurrence, make_grid, output_field)
from .errors import GridError, PlanError
from .params import EnsembleParams
from .schedule import (PlanReport, PulsePlan, _emission_signs, _flip_masks,
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
        signs = _emission_signs(parked, self._product[None])[:, 0]
        hot = np.flatnonzero(signs)
        if len(hot) > 1:
            raise PlanError("mask made more than one row superradiant")
        if len(hot):
            e = self.entries.pop(hot[0])
            self.active_amplitude = complex(e.amplitude * signs[hot[0]])
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


def _bin_edges(grid: TimeGrid, plan: PulsePlan) -> list[int]:
    """Grid indices of the plan's last ``plan.bins`` events: the write bins'
    ends or the read slots' starts (a passive write's opening closes no bin)."""
    times = plan.times[len(plan.times) - plan.bins:]
    try:
        edges = [grid.index_of(t) for t in times]
    except GridError as exc:
        raise PlanError(f"plan events must sit on grid nodes: {exc}") from exc
    for k in range(1, len(edges)):
        if edges[k] == edges[k - 1]:
            raise PlanError(f"plan events at {times[k - 1]} and {times[k]} fall on "
                            f"one grid node ({edges[k]}), leaving a bin empty")
    return edges


def _require_verified(plan: PulsePlan,
                      write_plan: PulsePlan | None = None) -> PlanReport:
    report = verify_plan(plan, write_plan)
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
    T the grid end).  Returns the ledger of stored amplitudes and the
    transmitted (not absorbed) packet on the input grid.
    """
    return _write(f_in, plan, p, loss_rate, pulse_success_amplitude)[:2]


def _write(f_in: WavePacket, plan: PulsePlan, p: EnsembleParams,
           loss_rate: float, pulse_success_amplitude: float):
    """``simulate_write`` on the input's cell values, sampled once; also
    returns the input norm and the input's bin amplitudes."""
    _require_verified(plan)
    grid = f_in.grid
    cells = _cell_values(f_in)
    density = _photon_density(cells, grid.dt, p)
    in_norm = _require_one_photon(float(np.sum(density)))
    edges = _bin_edges(grid, plan)
    if edges and edges[0] == 0:
        raise PlanError("first write pulse coincides with the grid start")
    big_a, big_b = _rk4_forcing(cells, grid.dt, p)
    del cells  # three grid-length arrays, not needed in the bin loop
    c_full = np.empty(grid.n_samples, dtype=complex)
    captured = []
    for a, b in zip([0, *edges], [*edges, grid.n_samples - 1]):
        if b > a:
            c_full[a:b + 1] = _rk4_recurrence(big_a, big_b[a:b], 0.0)
            captured.append(c_full[b])
    held = (grid.n_samples - 1 - np.array(edges)) * grid.dt
    stored = (np.array(captured[:len(edges)], dtype=complex)
              * np.exp(-loss_rate * held / 2.0)
              * pulse_success_amplitude ** np.arange(len(edges), 0, -1))
    masks, product = _flip_masks(plan, np.ones(plan.parts, dtype=np.int64))
    # bin n is parked under the final running product times its stored row
    parked = product * np.multiply.accumulate(masks[::-1], axis=0)[::-1]
    ledger = ModeLedger(plan.parts, [
        LedgerEntry(n, row, a)
        for n, (row, a) in enumerate(zip(parked, stored.tolist()), start=1)])
    ledger._product = product
    bps = tuple(sorted(set(f_in.breakpoints) | set(plan.times)))
    transmitted = replace(output_field(f_in, AmplitudeTrajectory(grid, c_full), p),
                          breakpoints=bps)
    # input bin n: sqrt of its photon number, with the phase of the sum of
    # its samples (the edge node opens the next bin and holds its value)
    f_bins = {}
    if edges:
        starts, end = [0, *edges[:-1]], edges[-1]
        sums = np.add.reduceat(f_in.samples[:end], starts).tolist()
        numbers = np.add.reduceat(density[:end], starts).tolist()
        for n, (s, m) in enumerate(zip(sums, numbers), start=1):
            f_bins[n] = math.sqrt(max(m, 0.0)) * (s / abs(s) if s else 1.0)
    return ledger, transmitted, in_norm, f_bins


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
    next mask parks what is left of it back in a dark row.  The caller's
    ledger is left untouched.
    """
    write = write_plan or plan_write(plan.parts, plan.bins, plan.bin_duration)
    report = _require_verified(plan, write)
    if not np.array_equal(ledger._product,
                          _flip_masks(write, np.ones(plan.parts, dtype=np.int64))[1]):
        raise PlanError("ledger was not written by the read plan's write plan")
    if dt is None:
        dt = p.tau_R / DEFAULT_STEPS_PER_TAU_R
    t0 = plan.times[0]
    grid = make_grid(p, plan.t_end - t0, t0=t0, dt=dt)
    times = grid.times
    on = times[_bin_edges(grid, plan)]
    off = np.append(on[1:], grid.t_end)
    stored = ledger.amplitudes_by_bin()
    amps = (np.array([stored.get(b, 0j) for b in report.emission_order], dtype=complex)
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
    output = WavePacket(grid, shape(times), shape=shape, breakpoints=bps)
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
    """Write ``f_in`` into subradiant modes, read it back, and score it."""
    ledger, transmitted, in_norm, f_bins = _write(
        f_in, write_plan, p, loss_rate, pulse_success_amplitude)
    captured = ledger.amplitudes_by_bin()
    stored_sq = ledger.stored_norm_sq()
    output, record = simulate_read(
        ledger, read_plan, p, loss_rate, dt=f_in.grid.dt,
        write_plan=write_plan, pulse_success_amplitude=pulse_success_amplitude)
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
    from .schedule import plan_read, plan_write

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
    f_in = WavePacket(grid, _node_samples(shape, grid, (t1, t2)), shape=shape,
                      breakpoints=(t1, t2))
    write = plan_write(4, 2, separation)
    read = plan_read(4, 2, separation, time_reversed=time_reversed, t0=t2)
    return f_in, write, read


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
    return end_to_end(f_in, write, read, p,
                      pulse_success_amplitude=pulse_success_amplitude)


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
