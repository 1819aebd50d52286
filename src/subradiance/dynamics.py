"""One-mode resonant dynamics of the collective excitation amplitude.

The collective amplitude c(t) and the dimensionless photon density F(t)
obey the local law

    dc/dt = -c / (2 tau_R) - F_in(t) / sqrt(tau_R tau_E),
    F_out(t) = F_in(t) + sqrt(tau_E / tau_R) * c(t),

whose integral form is the memory-kernel convolution

    c(t) = c(0) e^{-t/2tau_R}
         - (tau_R tau_E)^{-1/2} int_0^inf F_in(t - s) e^{-s/2tau_R} ds.

Equivalence of the two is the core correctness property of this module and
is cross-checked against direct quadrature in the test suite.

Integration uses a classical fixed-step 4th-order Runge-Kutta scheme, which
reads the packet at the start, middle and end of every step.  Step ends are
the node samples, which hold the right-sided value at a breakpoint node;
discontinuities are expected to sit on grid nodes.  To keep the genuine
4th-order convergence, a packet may carry an analytic ``shape`` callable:
it is sampled at the midpoints, and a hair inside the step on either side
of every breakpoint node.  Packets given only as samples have their
midpoint values reconstructed by 4-point cubic interpolation that never
crosses a declared breakpoint.  One step model (``_steps``) serves every
reader: step k runs from the node sample y[k] to y[k+1], except on the few
steps ks that start on a right limit or end on a left limit at a breakpoint
node.  The forcing B[k] of the RK4 step c[k+1] = A c[k] + B[k]
(``_forcing``), and Simpson's rule for the photon number and int F
(``_span_sums``: ``packet_norm`` and the write below) and for
``packet_overlap``, read the samples and midpoints in place, with one term
per step of ks; none copies the samples.
The analytic packets of this package (rectangular, rising exponential, the
time-bin qubit, the read-out) are piecewise exponentials, sampled by one
vectorized helper with one exponential per point.

Such a packet also has an exact write.  The law is linear, so on each
piece F(t) = F(s) e^{(t-s)/tau} the amplitude is e^{-(t-s)/2tau_R} c(s) plus
one exponential integral of the forcing (``_segments``; Hochbruck &
Ostermann, Acta Numerica 19, 2010, treat such exponential integrators in
general).  ``closed_form_rectangular`` and ``closed_form_rising`` are this
propagator.  ``evolve_amplitude`` and ``forward_scatter`` stay on RK4.

The write of ``storage`` is one call, ``_bins_from_zero``: c starts from 0
and restarts from 0 at every bin edge.  A piecewise-exponential packet is
written in one pass over its segments, O(pieces + bins) scalar steps, in
which each bin's photon number, int F and captured amplitude build up; c on
the nodes (``_segment_nodes``, O(samples)) is left to a sampler that runs
only when the transmitted packet is read.  Any other packet (a user shape,
or samples only) is written on its RK4 step: from c = 0, a bin's captured
amplitude is the weighted sum sum_k A^(e-1-k) B[k] of its steps' forcing,
which ``_span_sums`` takes from node sums with the midpoints evaluated
once; the forcing and the RK4 scan that restarts at the bin edges are
built only when the transmitted packet is read.

The analytic packets (``_shape_packet``), the transmitted packet and the
read-out are lazy (``_lazy_packet``): their node samples, and the grid's
times (``TimeGrid.times``, built once per grid), are made on first read.  A write
and read of analytic packets that no caller samples allocates no grid.

The recurrence runs as a blocked prefix scan in numpy (Blelloch 1990; Martin
& Cundy 2018): within a block of L steps a cumulative sum of B[j] A^-j,
across blocks a Python loop of about n/L steps that carries the amplitude
in, 0 after a restart.  L is the largest block with |A|^-L <= e (about
2 tau_R/dt, 400 steps at the default grid, 40 at the coarsest allowed), so
the scan's weights stay below e; it is the whole grid when |A| rounds to 1.
Blocks start at node 0 and at every restart.  scipy.signal.lfilter would
run the same recurrence, but importing it costs about 1.5 s and 100 MB, and
the package needs only numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import DomainError, GridError, RegimeError
from .params import EnsembleParams

__all__ = [
    "TimeGrid",
    "WavePacket",
    "AmplitudeTrajectory",
    "make_grid",
    "zero_packet",
    "rectangular_packet",
    "rising_exponential",
    "packet_from_samples",
    "packet_norm",
    "packet_overlap",
    "evolve_amplitude",
    "output_field",
    "forward_scatter",
    "closed_form_rectangular",
    "closed_form_rising",
    "optimize_capture",
    "trajectory_table",
]

# Endpoint values of each RK step are sampled this far inside the step so
# that jumps sitting exactly on a node resolve to the correct one-sided limit.
_EDGE_NUDGE = 1e-7
# A time within this many steps dt of a grid node sits on that node.
_NODE_TOL = 1e-6

DEFAULT_STEPS_PER_TAU_R = 200
MAX_DT_IN_TAU_R = 1.0 / 20.0
# Largest grid make_grid builds: 160 MB per complex array.
_MAX_GRID_SAMPLES = 10 ** 7


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = t0 + k dt, k = 0 .. n_samples-1."""

    t0: float
    dt: float
    n_samples: int

    def __post_init__(self):
        if not self.dt > 0:
            raise GridError("dt must be strictly positive")
        if self.n_samples < 2:
            raise GridError("a grid needs at least two samples")

    @cached_property
    def times(self) -> np.ndarray:
        """Node times, built on first read and kept: read-only, since every
        packet on the grid shares them."""
        times = self.t0 + self.dt * np.arange(self.n_samples)
        times.flags.writeable = False
        return times

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n_samples - 1)

    def nodes_of(self, times) -> np.ndarray:
        """Index of the node at each time, or -1 where a time lies off the
        grid: outside it, or more than 1e-6 dt from the nearest node."""
        t = np.asarray(times, dtype=float)
        k = np.rint((t - self.t0) / self.dt)
        # an infinite time gives inf - inf = nan below, which is off the grid
        with np.errstate(invalid="ignore"):
            on = (k >= 0) & (k < self.n_samples) & (np.abs(self.t0 + k * self.dt - t)
                                                     <= _NODE_TOL * self.dt)
        return np.where(on, k, -1).astype(np.int64)

    def index_of(self, t: float) -> int:
        """Index of the node at time t; t must sit on the grid."""
        k = int(self.nodes_of(t))
        if k < 0:
            raise GridError(f"time {t} is not a node of this grid")
        return k


@dataclass(frozen=True)
class WavePacket:
    """Complex dimensionless photon density samples on a uniform grid.

    ``samples`` are the node values the integrator and the quadratures read
    as step ends.  ``shape``, when present, is a vectorized callable
    t -> F(t) sampled at step midpoints, and on both sides of the
    breakpoint nodes, for 4th-order integration and quadrature.
    ``breakpoints`` lists times (expected on grid nodes) where F is allowed
    to jump; node samples store the right-sided limit there.

    The package's own packets (``rectangular_packet``, ``rising_exponential``,
    and the transmitted and read-out packets of ``storage``) are lazy: their
    ``samples`` are built on first read and then kept.  The repr names the
    grid, not the samples, so printing a packet samples nothing.
    """

    grid: TimeGrid
    samples: np.ndarray = field(repr=False)
    shape: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.samples) != self.grid.n_samples:
            raise GridError("sample count does not match grid")

    def __getattr__(self, name):
        # only reached while a lazy packet's samples are unset: build them
        sampler = self.__dict__.get("_sampler")
        if name != "samples" or sampler is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        samples = self.__dict__["samples"] = sampler()
        # the sampler's closure (a write's amplitudes, an input) is let go
        self.__dict__.pop("_sampler", None)
        return samples


def _lazy_packet(grid: TimeGrid, sampler: Callable[[], np.ndarray], shape=None,
                 breakpoints: tuple[float, ...] = ()) -> WavePacket:
    """A packet whose samples are ``sampler()``, called on their first read.
    The sampler must return a fresh array on every call, so that one that
    runs twice (two threads) gives the same samples."""
    f = object.__new__(WavePacket)
    f.__dict__.update(grid=grid, shape=shape, breakpoints=breakpoints, _sampler=sampler)
    return f


def _shape_packet(grid: TimeGrid, shape, breakpoints: tuple[float, ...]) -> WavePacket:
    """The packet of an analytic ``shape``, sampled by ``_node_samples`` on
    first read."""
    return _lazy_packet(grid, partial(_node_samples, shape, grid, breakpoints), shape,
                        breakpoints)


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Collective-mode amplitude c(t) on a uniform grid."""

    grid: TimeGrid
    c: np.ndarray

    def __post_init__(self):
        if len(self.c) != self.grid.n_samples:
            raise GridError("sample count does not match grid")


def make_grid(p: EnsembleParams, duration: float, t0: float = 0.0,
              dt: float | None = None) -> TimeGrid:
    """Grid covering [t0, t0+duration] at the default resolution tau_R/200."""
    if dt is None:
        dt = p.tau_R / DEFAULT_STEPS_PER_TAU_R
    steps = duration / dt
    # checked before anything is allocated; an infinite or NaN count fails too
    if not steps < _MAX_GRID_SAMPLES:
        raise GridError(f"a grid of {steps:.3g} steps exceeds the limit of "
                        f"{_MAX_GRID_SAMPLES:.0e} samples")
    return TimeGrid(t0, dt, int(round(steps)) + 1)


def zero_packet(grid: TimeGrid) -> WavePacket:
    z = np.zeros(grid.n_samples, dtype=complex)
    return WavePacket(grid, z, shape=lambda t: np.zeros_like(np.asarray(t, dtype=float), dtype=complex))


def rectangular_packet(p: EnsembleParams, grid: TimeGrid, tau_ph: float,
                       t_start: float = 0.0) -> WavePacket:
    """Unit-norm quasi-rectangular packet of duration tau_ph.

    Fronts are ideal grid-aligned steps; physics on the tau_E front scale is
    outside the one-mode model, so tau_ph < 10 tau_E is rejected.
    """
    if tau_ph < 10.0 * p.tau_E:
        raise RegimeError(
            f"tau_ph = {tau_ph:.3g} s shorter than 10 tau_E = {10 * p.tau_E:.3g} s: "
            "fronts would violate the one-mode approximation"
        )
    amp = np.sqrt(p.tau_E / tau_ph)
    t_stop = t_start + tau_ph
    shape = _exp_pieces([t_start, t_stop], [amp, 0.0], [np.inf, np.inf],
                        [t_start, t_stop])
    return _shape_packet(grid, shape, (t_start, t_stop))


def rising_exponential(t_end: float, p: EnsembleParams, grid: TimeGrid) -> WavePacket:
    """Rising-exponential packet sqrt(tau_E/tau_R) e^{(t-t_end)/2tau_R}, t <= t_end.

    This is the shape whose absorption probability approaches unity;
    norm = 1 - e^{-(t_end - t0)/tau_R}.
    """
    shape = _exp_pieces([-np.inf, t_end], [np.sqrt(p.tau_E / p.tau_R), 0.0],
                        [2.0 * p.tau_R, np.inf], [t_end, t_end])
    return _shape_packet(grid, shape, (t_end,))


@dataclass(frozen=True, eq=False)
class _Pieces:
    """Vectorized t -> amps[j] e^{(t - refs[j]) / taus[j]} on the right-sided
    pieces starts[j] <= t < starts[j+1]; the last piece runs on forever and
    entry 0 is the zero piece before the first start.  A tau is a signed time
    constant, inf on a constant piece.  A rising piece's ref is its end and a
    decaying piece's its start, so the exponent is <= 0 inside the piece: one
    np.exp per point that never overflows (an inf times a zero amplitude would
    be nan).  The write takes such a packet exactly (``_segments``)."""

    starts: np.ndarray
    amps: np.ndarray
    taus: np.ndarray
    refs: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        # on sorted times every piece is one run of points; sort other input
        order = None
        if np.any(flat[1:] < flat[:-1]):
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
        counts = np.diff(np.searchsorted(flat, self.starts), append=len(flat))
        x = np.repeat(self.refs, counts)
        np.subtract(flat, x, out=x)
        x /= np.repeat(self.taus, counts)
        np.exp(x, out=x)
        out = np.repeat(self.amps, counts)
        out *= x
        if order is not None:
            out[order] = out.copy()
        return out.reshape(t.shape)


def _exp_pieces(starts, amps, taus, refs) -> _Pieces:
    """The pieces a_j e^{(t - refs[j]) / taus[j]} from starts[j] on, zero
    before starts[0]."""
    return _Pieces(np.append(-np.inf, np.asarray(starts, dtype=float)),
                   np.append(0j, np.asarray(amps, dtype=complex)),
                   np.append(np.inf, np.asarray(taus, dtype=float)),
                   np.append(0.0, np.asarray(refs, dtype=float)))


def packet_from_samples(grid: TimeGrid, samples: np.ndarray,
                        breakpoints: tuple[float, ...] = ()) -> WavePacket:
    return WavePacket(grid, np.asarray(samples, dtype=complex), breakpoints=breakpoints)


# ---------------------------------------------------------------------------
# The step model: start / midpoint / end of every grid step, one-sided at
# breakpoints.  Shared by the RK4 forcing and the quadratures.
# ---------------------------------------------------------------------------

def _jump_nodes(grid: TimeGrid, breakpoints: tuple[float, ...]):
    """Nodes that sit on a breakpoint, increasing, and each one's breakpoint
    time (the latest, where two share a node); each holds the value of the
    segment it opens, even the last node."""
    t = np.asarray(breakpoints, dtype=float)
    k = grid.nodes_of(t)
    order = np.lexsort((t, k))
    k, t = k[order], t[order]
    keep = (k >= 0) & np.append(k[1:] != k[:-1], True)
    return k[keep], t[keep]


def _node_samples(shape, grid: TimeGrid, breakpoints: tuple[float, ...]) -> np.ndarray:
    """Node values of ``shape``, right-sided at the breakpoint nodes: those
    are sampled a nudge to the right of their breakpoint, which may lie up to
    1e-6 dt from the node, either side."""
    # a copy unless the shape returns a fresh complex array, as _Pieces does
    samples = np.asarray(shape(grid.times), dtype=complex)
    k, t = _jump_nodes(grid, breakpoints)
    if len(k):
        samples[k] = shape(t + _EDGE_NUDGE * grid.dt)
    return samples


def _cubic_midpoints(y: np.ndarray, out: np.ndarray) -> None:
    """Midpoint values of a smoothly sampled array via 4-point cubics, written
    into ``out`` (one fewer than ``y``)."""
    n = len(y)
    if n == 2:
        out[0] = 0.5 * (y[0] + y[1])
    elif n == 3:
        # quadratic through all three points
        out[0] = 0.375 * y[0] + 0.75 * y[1] - 0.125 * y[2]
        out[1] = -0.125 * y[0] + 0.75 * y[1] + 0.375 * y[2]
    else:
        # (-y[i-1] + 9 y[i] + 9 y[i+1] - y[i+2]) / 16, in place
        mid = out[1:-1]
        np.add(y[1:-2], y[2:-1], out=mid)
        mid *= 9.0
        mid -= y[:-3]
        mid -= y[3:]
        mid /= 16.0
        out[0] = (5.0 * y[0] + 15.0 * y[1] - 5.0 * y[2] + y[3]) / 16.0
        out[-1] = (y[-4] - 5.0 * y[-3] + 15.0 * y[-2] + 5.0 * y[-1]) / 16.0


def _cubic_left_limit(y: np.ndarray) -> complex:
    """Left-sided limit one step past the last sample of a smooth run."""
    if len(y) >= 4:
        return -y[-4] + 4.0 * y[-3] - 6.0 * y[-2] + 4.0 * y[-1]
    if len(y) == 3:
        return y[-3] - 3.0 * y[-2] + 3.0 * y[-1]
    return 2.0 * y[-1] - y[-2]


def _steps(f: WavePacket):
    """The steps of a packet: its node samples y and step midpoints vm,
    both contiguous complex arrays that are only read; the increasing steps
    ks that start on a right limit or end on a left limit at a breakpoint
    node; and those steps' start and end values.  Every other step k starts
    on y[k] and ends on y[k+1].

    From ``shape``, the midpoints, and the limits a nudge either side of
    each breakpoint, which may lie up to 1e-6 dt from its node.  For samples
    only, the right limit is the node sample (right-sided already) and, over
    each run between breakpoint nodes, the midpoints are cubics that never
    cross a breakpoint, a run ending on one closed by its cubic left limit.
    """
    grid = f.grid
    n = grid.n_samples
    y = np.ascontiguousarray(f.samples, dtype=complex)
    k, t = _jump_nodes(grid, f.breakpoints)
    if f.shape is not None:
        # both sides of every breakpoint in one call, in time order
        nudge = _EDGE_NUDGE * grid.dt
        both = np.asarray(f.shape(np.column_stack([t - nudge, t + nudge]).ravel()),
                          dtype=complex)
        right, left = both[1::2], both[::2]
        # t0 + (k + 1/2) dt, without building the grid's node times
        tm = np.arange(0.5, n - 1, dtype=float)
        tm *= grid.dt
        tm += grid.t0
        vm = np.ascontiguousarray(f.shape(tm), dtype=complex)
    else:
        right, left = y[k], y[k]
        vm = np.empty(n - 1, dtype=complex)
        # the runs between breakpoint nodes; one that ends on such a node is
        # closed by its cubic left limit there
        for i, (a, b) in enumerate(zip([0, *k.tolist()], [*k.tolist(), n - 1])):
            if b == a:
                continue
            seg = y[a:b + 1]
            if i < len(k):
                left[i] = seg[0] if b - a == 1 else _cubic_left_limit(seg[:-1])
                seg = np.append(seg[:-1], left[i])
            _cubic_midpoints(seg, vm[a:b])
    starts, ends = k < n - 1, k > 0
    k0, k1 = k[starts], k[ends] - 1
    # a set, not np.union1d, whose np.unique imports numpy.ma (13 ms)
    ks = np.array(sorted({*k0.tolist(), *k1.tolist()}), dtype=np.int64)
    v0, v1 = y[ks], y[ks + 1]
    v0[np.searchsorted(ks, k0)] = right[starts]
    v1[np.searchsorted(ks, k1)] = left[ends]
    return y, vm, ks, (v0, v1)


def _abs2(v: np.ndarray) -> np.ndarray:
    """|v|^2 as re^2 + im^2, the order np.square over float pairs sums it in."""
    return v.real ** 2 + v.imag ** 2


def _span_sums(f: WavePacket, p: EnsembleParams, at, rk4=None):
    """Per span of steps at[i] .. at[i+1] - 1 (``at`` increasing from node
    0), and one last span from at[-1] to the last node unless at[-1] is that
    node: the photon number (1/tau_E) int |F|^2 and int F, both by Simpson's
    rule on each step.  With ``rk4`` (``_rk4_weights``), also the amplitude
    each span of ``at`` ends on from c = 0 at its start, sum_k A^(e-1-k) B[k]
    over its steps a <= k < e under the RK4 step c[k+1] = A c[k] + B[k];
    the last span, past at[-1], has none.

    No per-step array is built.  A step starts on its first node's sample
    and ends on the next one's, except on the steps ks of ``_steps``.  So a
    span's sums over its step starts and over its step ends are one node
    sum Y = sum y_k (np.add.reduceat over y, or over the float pairs of y
    squared for |y|^2), the ends' shifted by one node, Y - y_a + y_e, plus
    one term per step of ks.  The capture regroups the same way: with G = sum
    A^(e-1-k) y_k, H = sum A^(e-1-k) vm_k over the midpoints vm, evaluated
    once, and B[k] = (h s / 6)(w0 v0[k] + wm vm[k] + v1[k]), it is

        (h s / 6)(w0 G + wm H + y_e + A (G - A^(e-1-a) y_a) + jump terms).
    """
    grid = f.grid
    y, vm, ks, (v0, v1) = _steps(f)
    at = np.asarray(at, dtype=np.int64)
    steps = grid.n_samples - 1
    bounds = at if at[-1] == steps else np.append(at, steps)
    a, e = bounds[:-1], bounds[1:]
    # one grid-length buffer: |y|^2 and |vm|^2 as float pairs, then the
    # weighted samples of the capture
    buf = np.empty(steps, dtype=complex)
    pairs = buf.view(float)
    y_sq = np.add.reduceat(np.square(y[:steps].view(float), out=pairs), 2 * a)
    vm_sq = np.add.reduceat(np.square(vm.view(float), out=pairs), 2 * a)
    y_sum, vm_sum = np.add.reduceat(y[:steps], a), np.add.reduceat(vm, a)
    y_a, y_e = y[a], y[e]
    # one term per step of ks: its start and end less its node samples
    span = np.searchsorted(bounds, ks, side="right") - 1
    y0, y1 = y[ks], y[ks + 1]
    d0, d1 = v0 - y0, v1 - y1
    jump_sum = np.zeros(len(a), dtype=complex)
    np.add.at(jump_sum, span, d0 + d1)
    jump_sq = np.zeros(len(a))
    np.add.at(jump_sq, span, (_abs2(v0) - _abs2(y0)) + (_abs2(v1) - _abs2(y1)))
    photons = ((grid.dt / 6.0) / p.tau_E) * (
        2.0 * y_sq - _abs2(y_a) + _abs2(y_e) + 4.0 * vm_sq + jump_sq)
    flux = (grid.dt / 6.0) * (2.0 * y_sum - y_a + y_e + 4.0 * vm_sum + jump_sum)
    if rk4 is None:
        return photons, flux, None
    big_a, w0, wm, s = rk4
    # the spans of ``at`` are the first len(at) - 1, and end on at[-1]
    n_at, end = len(at) - 1, at[-1]
    spans = (e - a)[:n_at]
    # A^(e-1-k) at every step: per span, the table A^j (j below the longest
    # span, so no power overflows) read backwards
    table = big_a ** np.arange(spans.max(initial=0))
    back = table[::-1]
    w = np.concatenate([back[len(back) - m:] for m in spans.tolist()] or [back])
    big_g = np.add.reduceat(np.multiply(y[:end], w, out=buf[:end]), a[:n_at])
    big_h = np.add.reduceat(np.multiply(vm[:end], w, out=buf[:end]), a[:n_at])
    captured = (w0 * big_g + wm * big_h + y_e[:n_at]
                + big_a * (big_g - table[spans - 1] * y_a[:n_at]))
    # a step's start enters its forcing with w0, its end with 1
    on = span < n_at
    np.add.at(captured, span[on], (w0 * d0[on] + d1[on]) * table[e[span[on]] - 1 - ks[on]])
    return photons, flux, captured * (s * grid.dt / 6.0)


def packet_norm(f: WavePacket, p: EnsembleParams) -> float:
    """Photon-probability content (1/tau_E) int |F|^2 dt."""
    return float(_span_sums(f, p, [0])[0][0])


def packet_overlap(f: WavePacket, g: WavePacket, p: EnsembleParams) -> complex:
    """Inner product (1/tau_E) int conj(F) G dt on a common grid: Simpson's
    rule on each step (``_steps``), as node sums plus a term per step that
    either packet starts or ends on a limit."""
    _require_same_grid(f.grid, g.grid)
    fy, fm, fk, f_ends = _steps(f)
    gy, gm, gk, g_ends = _steps(g)
    total = (2.0 * np.vdot(fy, gy) - np.conj(fy[0]) * gy[0] - np.conj(fy[-1]) * gy[-1]
             + 4.0 * np.vdot(fm, gm))
    # on the steps either packet has limits on, their product replaces that
    # of the samples: at the step starts (i = 0), then at the step ends
    ks = np.array(sorted({*fk.tolist(), *gk.tolist()}), dtype=np.int64)
    for i in (0, 1):
        fv, gv = fy[ks + i], gy[ks + i]
        total -= np.vdot(fv, gv)
        fv[np.searchsorted(ks, fk)], gv[np.searchsorted(ks, gk)] = f_ends[i], g_ends[i]
        total += np.vdot(fv, gv)
    return complex((f.grid.dt / 6.0) * total) / p.tau_E


def _require_one_photon(norm: float) -> float:
    # written so that a NaN norm fails it too
    if not norm <= 1.0 + 1e-6:
        raise DomainError(f"packet norm {norm} exceeds one photon" if norm > 1.0
                          else f"packet norm {norm} is not finite")
    return norm


def _require_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    if (a.n_samples != b.n_samples or abs(a.t0 - b.t0) > 1e-9 * a.dt
            or abs(a.dt - b.dt) > 1e-12 * a.dt):
        raise GridError("time grids do not match")


# ---------------------------------------------------------------------------
# Integration of the local law and the field output relation
# ---------------------------------------------------------------------------

def _require_fine_grid(h: float, p: EnsembleParams) -> None:
    if h > p.tau_R * MAX_DT_IN_TAU_R:
        raise RegimeError(
            f"grid dt = {h:.3g} s too coarse: need dt <= tau_R/20 = "
            f"{p.tau_R * MAX_DT_IN_TAU_R:.3g} s"
        )


def _rk4_weights(h: float, p: EnsembleParams):
    """A, w0, wm and s of the RK4 step c[k+1] = A c[k] + B[k] of step h, with
    forcing B[k] = (h/6)(w0 s v0[k] + wm s vm[k] + s v1[k]) from the step's
    start, midpoint and end values."""
    _require_fine_grid(h, p)
    a = -0.5 / p.tau_R
    s = -1.0 / np.sqrt(p.tau_R * p.tau_E)
    # One RK4 step of the affine system is c' = A c + B with constant A;
    # the forcing weights come from expanding the four stages.
    q = 0.5 * h * a
    big_a = 1.0 + 2 * q + 2 * q**2 + (4.0 / 3.0) * q**3 + (2.0 / 3.0) * q**4
    w0 = 1.0 + 2 * q + 2 * q**2 + 2 * q**3
    wm = 4.0 + 4 * q + 2 * q**2
    return big_a, w0, wm, s


def _rk4_forcing(cell_values, h: float, p: EnsembleParams):
    """A and the forcing B[k] of the RK4 step c[k+1] = A c[k] + B[k]."""
    big_a, w0, wm, s = _rk4_weights(h, p)
    v0, vm, v1 = cell_values
    # B = (h/6)(w0 s v0 + wm s vm + s v1), built in place: two arrays at a time
    big_b = s * v0
    big_b *= w0
    tmp = s * vm
    tmp *= wm
    big_b += tmp
    big_b += np.multiply(s, v1, out=tmp)
    big_b *= h / 6.0
    return big_a, big_b


def _forcing(f: WavePacket, p: EnsembleParams):
    """A and the forcing B[k] of a packet's RK4 steps (``_steps``), built on
    its node samples and midpoints and overwritten on the steps ks."""
    y, vm, ks, (v0, v1) = _steps(f)
    big_a, big_b = _rk4_forcing((y[:-1], vm, y[1:]), f.grid.dt, p)
    big_b[ks] = _rk4_forcing((v0, vm[ks], v1), f.grid.dt, p)[1]
    return big_a, big_b


def _scan_block(big_a, n: int) -> int:
    """The scan's block length over n steps: the largest L with |A|^-L <= e,
    at most n (at least 1)."""
    mod = abs(big_a)
    # |A| that rounds to 1 gives log|A| = 0: one block, all weights ~1
    return max(1, n if mod >= 1.0 else min(n, int(-1.0 / np.log(mod))))


def _rk4_recurrence(big_a, big_b: np.ndarray, c0, restarts=()) -> np.ndarray:
    """Amplitudes c[0] = c0, c[k+1] = A c[k] + B[k] at every node, where c
    restarts from 0 at each of the increasing ``restarts`` nodes: there
    c[k+1] = B[k], while c[k] holds the left limit A c[k-1] + B[k-1].

    A blocked prefix scan: inside a block of L steps the response to the
    block's own forcing is y_i = A^i cumsum_j(B_j A^-j), and the amplitude
    carried in from the previous block adds carry A^(i+1).  L is the largest
    block with |A|^-L <= e, so no weight A^-j exceeds e, and at most the
    longest span between restarts.  Blocks start at node 0 and at every
    restart, so each span gets, to the bit, what it gets scanned alone; the
    blocks hold at most n + spans x L values however uneven the spans are.
    """
    n = len(big_b)
    bounds = [0, *restarts, n]
    size = _scan_block(big_a, int(np.diff(bounds).max()))
    # blocks of at most L steps, each inside one span between restarts
    blocks = [(s, min(s + size, b)) for a, b in zip(bounds, bounds[1:])
              for s in range(a, b, size)]
    y = np.zeros((len(blocks), size), dtype=complex)
    for row, (s, e) in zip(y, blocks):
        row[:e - s] = big_b[s:e]
    powers = big_a ** np.arange(size + 1)
    y /= powers[:-1]
    np.cumsum(y, axis=1, out=y)
    y *= powers[:-1]
    c = np.empty(n + 1, dtype=complex)
    c[0] = c0
    carry, opens = c[0], set(bounds[1:-1])
    for row, (s, e) in zip(y, blocks):
        if s in opens:
            carry = np.complex128(0)
        row += carry * powers[1:]
        carry = row[-1]
        c[s + 1:e + 1] = row[:e - s]
    return c


def evolve_amplitude(f_in: WavePacket, c0: complex, p: EnsembleParams) -> AmplitudeTrajectory:
    """Integrate dc/dt = -c/(2 tau_R) - F_in/sqrt(tau_R tau_E) from c(t0)=c0."""
    # written so that a NaN c0 fails it too
    if not abs(c0) <= 1.0 + 1e-9:
        raise DomainError(f"|c0| = {abs(c0)} exceeds 1" if abs(c0) > 1.0
                          else f"c0 = {c0} is not finite")
    big_a, big_b = _forcing(f_in, p)
    return AmplitudeTrajectory(f_in.grid, _rk4_recurrence(big_a, big_b, c0))


def output_field(f_in: WavePacket, traj: AmplitudeTrajectory,
                 p: EnsembleParams) -> WavePacket:
    """F_out = F_in + sqrt(tau_E/tau_R) c, pointwise on the shared grid."""
    _require_same_grid(f_in.grid, traj.grid)
    k = np.sqrt(p.tau_E / p.tau_R)
    return WavePacket(f_in.grid, f_in.samples + k * traj.c,
                      breakpoints=f_in.breakpoints)


def forward_scatter(f_in: WavePacket, p: EnsembleParams) -> WavePacket:
    """Superradiant resonant forward scattering: evolve with c0 = 0, emit."""
    traj = evolve_amplitude(f_in, 0.0, p)
    return output_field(f_in, traj, p)


# ---------------------------------------------------------------------------
# Exact propagation of piecewise-exponential packets, and the closed forms
# ---------------------------------------------------------------------------

def _phi(x: float) -> float:
    """expm1(x)/x, 1 at x = 0: exact near 0, and never overflows for x <= 0."""
    return math.expm1(x) / x if x else 1.0


@dataclass(frozen=True)
class _Segments:
    """The local law integrated exactly over segments [bounds[i], bounds[i+1]],
    on each of which the input is one piece F(t) = F(s) e^{(t - s)/tau}, and
    its sums over each span between cuts (``_segments``)."""

    bounds: list[float]
    rate: list[float]  # 1/tau + 1/2tau_R
    f_start: list[complex]  # F at the segment's start
    c_start: list[complex]  # c at the start, 0 after a cut
    photons: list[float]  # per span: (1/tau_E) int |F|^2
    flux: list[complex]  # per span: int F
    captured: list[complex]  # per span: the left limit of c at its end


def _segments(pieces: _Pieces, p: EnsembleParams, grid: TimeGrid,
              cut_times) -> _Segments:
    """Integrate the local law from t0 to the grid end in one pass over the
    segments in time order, O(pieces + cuts) scalar steps.  Segments start at
    the piece starts inside the grid and at the cuts, on grid nodes from the
    grid start on, where c restarts from 0 and a span opens that runs to the
    next cut or the grid end; a cut on the last node ends the last segment.
    From the start s of a segment, with lag D = t - s and rate
    r = 1/tau + 1/2tau_R,

        c(t) = e^{-D/2tau_R} c(s) - F(t) D phi(-r D) / sqrt(tau_R tau_E),

    phi(x) = expm1(x)/x; for r < 0 the same integral is taken from F(s),
    F(s) e^{-D/2tau_R} D phi(r D).  Every exponential has a non-positive
    argument, so a resonant piece (tau = -2 tau_R) and very long pieces need
    no special case."""
    cuts = grid.nodes_of(cut_times).tolist()
    end = cut_times[-1] if cuts[-1] == grid.n_samples - 1 else grid.t_end
    # a piece start on a cut's node starts at the cut, as the node's
    # right-sided sample does
    cut_at = dict(zip(cuts, cut_times))
    starts = [cut_at.get(k, t) for k, t in zip(grid.nodes_of(pieces.starts).tolist(),
                                                pieces.starts.tolist())]
    bounds = sorted({*cut_times, *(t for t in starts if grid.t0 < t < end), end})
    amps, taus, refs = pieces.amps.tolist(), pieces.taus.tolist(), pieces.refs.tolist()
    opens = set(cut_times)
    two_tr = 2.0 * p.tau_R
    g = -1.0 / math.sqrt(p.tau_R * p.tau_E)
    rate, f_start, c_start = [], [], []
    photons, flux, captured = [], [], []
    j, c = 0, 0j
    for s, e in zip(bounds, bounds[1:]):
        # the piece is the last one to start by s
        while j + 1 < len(starts) and starts[j + 1] <= s:
            j += 1
        if s in opens:
            photons.append(0.0)
            flux.append(0j)
            captured.append(0j)
            c = 0j
        amp, tau, ref = amps[j], taus[j], refs[j]
        width = e - s
        f_s = amp * math.exp((s - ref) / tau)
        f_e = amp * math.exp((e - ref) / tau)
        decay = math.exp(-width / two_tr)
        r = 1.0 / tau + 1.0 / two_tr
        # each integral is taken from the end where the exponential is largest
        big = f_e if tau > 0 else f_s
        photons[-1] += abs(big) ** 2 * width * _phi(-abs(2.0 * width / tau)) / p.tau_E
        flux[-1] += big * width * _phi(-abs(width / tau))
        rate.append(r)
        f_start.append(f_s)
        c_start.append(c)
        forced = f_e if r >= 0 else f_s * decay
        c = decay * c + forced * width * _phi(-abs(r * width)) * g
        captured[-1] = c
    return _Segments(bounds, rate, f_start, c_start, photons, flux, captured)


def _segment_nodes(seg: _Segments, p: EnsembleParams, f: WavePacket) -> np.ndarray:
    """c on every node of ``f``'s grid from the exact segments of ``f``, in
    O(samples): the form of ``_segments`` with D = t - s on each segment's
    nodes and F(t) the node samples, built in place into a fresh array.  A
    node belongs to the segment its right-sided sample does.  A node on a
    segment's start holds c(s), 0 on a cut, and the last node holds the left
    limit."""
    grid, samples, times = f.grid, f.samples, f.grid.times
    n = grid.n_samples
    s = np.array(seg.bounds[:-1])
    first = np.clip(np.ceil((s - grid.t0) / grid.dt - _NODE_TOL), 0, n - 1).astype(np.int64)
    two_tr = 2.0 * p.tau_R
    g = 1.0 / math.sqrt(p.tau_R * p.tau_E)
    c = np.empty(n, dtype=complex)
    for i, (a, b) in enumerate(zip(first.tolist(), [*first[1:].tolist(), n - 1])):
        lag = times[a:b] - s[i]
        rate = abs(seg.rate[i])
        if rate:
            # -g D phi(-|r| D) = g expm1(-|r| D) / |r|
            w = lag * -rate
            np.expm1(w, out=w)
            w *= g / rate
        else:
            w = lag * -g
        if seg.rate[i] >= 0:
            np.multiply(samples[a:b], w, out=c[a:b])
        else:
            # r < 0: from F(s) e^{-D/2tau_R}, so no exponent is positive
            w *= np.exp(lag / -two_tr)
            np.multiply(w, seg.f_start[i], out=c[a:b])
        if seg.c_start[i]:
            c[a:b] += np.exp(lag / -two_tr) * seg.c_start[i]
    on = grid.nodes_of(s)
    c[on[on >= 0]] = np.array(seg.c_start)[on >= 0]
    c[-1] = seg.captured[-1]
    return c


def _exact_trajectory(f: WavePacket, p: EnsembleParams) -> AmplitudeTrajectory:
    """c from c(t0) = 0 under a piecewise-exponential packet, exactly."""
    seg = _segments(f.shape, p, f.grid, [f.grid.t0])
    return AmplitudeTrajectory(f.grid, _segment_nodes(seg, p, f))


def _bins_from_zero(f: WavePacket, p: EnsembleParams, edges: list[int], ends):
    """The write's integration: c from 0 at t0, restarting from 0 at every
    bin end, on the increasing nodes ``edges`` at the times ``ends``.

    Returns the input's photon number; a sampler that returns c on the
    nodes as a fresh array, 0 on each bin-start node and the left limit on
    the last; and lists of each bin's captured amplitude (the left limit of
    c at its end), photon number and int F.  Both paths sum per span: one
    per bin and one for a grid tail past the last edge, which counts in the
    input's photon number only.  Exact for a piecewise-exponential
    ``f.shape`` (``_segments``; the sampler runs ``_segment_nodes``).  Any
    other packet takes the sums from ``_span_sums``, with no per-step array;
    its sampler builds the forcing (``_forcing``) and runs one RK4 scan with
    ``restarts=edges``.
    """
    grid = f.grid
    _require_fine_grid(grid.dt, p)
    if isinstance(f.shape, _Pieces):
        # bins end on the pulses' own times, within 1e-6 dt of their nodes
        seg = _segments(f.shape, p, grid, [grid.t0, *ends])
        photons, flux, captured = seg.photons, seg.flux, seg.captured
        c_nodes = partial(_segment_nodes, seg, p, f)
    else:
        # bin n holds the steps from the n-th edge node to the next
        sums = _span_sums(f, p, [0, *edges], _rk4_weights(grid.dt, p))
        photons, flux, captured = (v.tolist() for v in sums)

        def c_nodes():
            # the scan, restarting at the bin edges, runs only when c is read
            big_a, big_b = _forcing(f, p)
            c = _rk4_recurrence(big_a, big_b, 0.0, edges)
            c[[k for k in edges if k < grid.n_samples - 1]] = 0.0
            return c
    in_norm = _require_one_photon(float(np.sum(photons)))
    n = len(edges)
    return in_norm, c_nodes, captured[:n], photons[:n], flux[:n]


def closed_form_rectangular(tau_ph: float, p: EnsembleParams,
                            grid: TimeGrid) -> AmplitudeTrajectory:
    """Exact amplitude for a unit-norm rectangular packet starting at t = t0.

    c(t) = 2 sqrt(tau_R/tau_ph) (e^{-t/2tau_R} - 1) while the packet lasts,
    then free superradiant decay of the value reached at tau_ph.
    """
    return _exact_trajectory(rectangular_packet(p, grid, tau_ph, grid.t0), p)


def closed_form_rising(t_end: float, p: EnsembleParams,
                       grid: TimeGrid) -> AmplitudeTrajectory:
    """Exact amplitude for the rising-exponential packet truncated at t0.

    For t <= t_end:  c = -(e^{(t-t_end)/2tau_R} - e^{-(t+t_end-2 t0)/2tau_R});
    afterwards the mirrored decaying exponential.  The second term is the
    finite-start correction, exponentially small when t_end - t0 >> tau_R.
    """
    return _exact_trajectory(rising_exponential(t_end, p, grid), p)


def _capture_amplitude(x: float) -> float:
    """Peak |c| for a rectangular packet of duration x = tau_ph / tau_R."""
    return 2.0 * (1.0 - np.exp(-x / 2.0)) / np.sqrt(x)


def optimize_capture(p: EnsembleParams) -> tuple[float, float]:
    """Rectangular-packet duration maximizing the captured amplitude.

    The stationarity condition is (1 + x) e^{-x/2} = 1 with x = tau_ph/tau_R;
    solved by bisection to 1e-12.  Returns (tau_ph_opt, peak amplitude);
    peak ~ 0.9026 at x ~ 2.513.
    """
    def f(x: float) -> float:
        return (1.0 + x) * np.exp(-x / 2.0) - 1.0

    lo, hi = 0.5, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-13:
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    x_opt = 0.5 * (lo + hi)
    return x_opt * p.tau_R, float(_capture_amplitude(x_opt))


def trajectory_table(f_in: WavePacket, traj: AmplitudeTrajectory,
                     f_out: WavePacket) -> str:
    """Delimited-text export: t, Re/Im F_in, Re/Im c, Re/Im F_out."""
    _require_same_grid(f_in.grid, traj.grid)
    _require_same_grid(f_in.grid, f_out.grid)
    lines = ["t\tre_f_in\tim_f_in\tre_c\tim_c\tre_f_out\tim_f_out"]
    rows = np.column_stack([f_in.grid.times, f_in.samples.real, f_in.samples.imag,
                            traj.c.real, traj.c.imag,
                            f_out.samples.real, f_out.samples.imag]).tolist()
    fmt = "\t".join(["%.12g"] * 7)
    lines += [fmt % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"
