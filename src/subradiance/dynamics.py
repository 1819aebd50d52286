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
crosses a declared breakpoint.  Those cell values, sampled once, give the
forcing B[k] of the RK4 step c[k+1] = A c[k] + B[k] and the photon number.
The analytic packets of this package (rectangular, rising exponential, the
time-bin qubit, the read-out) are piecewise exponentials, sampled by one
vectorized helper with one exponential per point.

The recurrence runs as a blocked prefix scan in numpy (Blelloch 1990; Martin
& Cundy 2018): within a block of L steps a cumulative sum of B[j] A^-j,
across blocks a Python loop of n/L steps that carries the amplitude in.  L
is the largest block with |A|^-L <= e (about 2 tau_R/dt, 400 steps at the
default grid, 40 at the coarsest allowed), so the scan's weights stay below
e; it is the whole grid when |A| rounds to 1.  scipy.signal.lfilter would
run the same recurrence, but importing it costs about 1.5 s and 100 MB, and
the package needs only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "check_single_photon_norm",
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

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n_samples - 1)

    def index_of(self, t: float) -> int:
        """Index of the node at time t; t must sit on the grid."""
        k = round((t - self.t0) / self.dt)
        if k < 0 or k >= self.n_samples or abs(self.t0 + k * self.dt - t) > 1e-6 * self.dt:
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
    """

    grid: TimeGrid
    samples: np.ndarray
    shape: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.samples) != self.grid.n_samples:
            raise GridError("sample count does not match grid")


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
    return WavePacket(grid, _node_samples(shape, grid, (t_start, t_stop)),
                      shape=shape, breakpoints=(t_start, t_stop))


def rising_exponential(t_end: float, p: EnsembleParams, grid: TimeGrid) -> WavePacket:
    """Rising-exponential packet sqrt(tau_E/tau_R) e^{(t-t_end)/2tau_R}, t <= t_end.

    This is the shape whose absorption probability approaches unity;
    norm = 1 - e^{-(t_end - t0)/tau_R}.
    """
    shape = _exp_pieces([-np.inf, t_end], [np.sqrt(p.tau_E / p.tau_R), 0.0],
                        [2.0 * p.tau_R, np.inf], [t_end, t_end])
    return WavePacket(grid, _node_samples(shape, grid, (t_end,)), shape=shape,
                      breakpoints=(t_end,))


def _exp_pieces(starts, amps, taus, refs) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized t -> amps[j] e^{(t - refs[j]) / taus[j]} on the right-sided
    pieces starts[j] <= t < starts[j+1]: zero before starts[0], the last piece
    runs on forever.  A tau is a signed time constant, inf on a constant
    piece.  A rising piece's ref is its end and a decaying piece's its start,
    so the exponent is <= 0 inside the piece: one np.exp per point that never
    overflows (an inf times a zero amplitude would be nan)."""
    starts = np.append(-np.inf, np.asarray(starts, dtype=float))
    amps = np.append(0j, np.asarray(amps, dtype=complex))
    taus = np.append(np.inf, np.asarray(taus, dtype=float))
    refs = np.append(0.0, np.asarray(refs, dtype=float))

    def shape(t):
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        # on sorted times every piece is one run of points; sort other input
        order = None
        if np.any(flat[1:] < flat[:-1]):
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
        counts = np.diff(np.searchsorted(flat, starts), append=len(flat))
        x = np.repeat(refs, counts)
        np.subtract(flat, x, out=x)
        x /= np.repeat(taus, counts)
        np.exp(x, out=x)
        out = np.repeat(amps, counts)
        out *= x
        if order is not None:
            out[order] = out.copy()
        return out.reshape(t.shape)

    return shape


def packet_from_samples(grid: TimeGrid, samples: np.ndarray,
                        breakpoints: tuple[float, ...] = ()) -> WavePacket:
    return WavePacket(grid, np.asarray(samples, dtype=complex), breakpoints=breakpoints)


# ---------------------------------------------------------------------------
# Cell-wise values: start / midpoint / end of every grid step, one-sided at
# breakpoints.  Shared by the RK4 integrator and the quadrature helpers.
# ---------------------------------------------------------------------------

def _jump_nodes(grid: TimeGrid, breakpoints: tuple[float, ...]) -> set[int]:
    """Nodes that sit on a breakpoint; each holds the value of the segment
    it opens, even the last node."""
    nodes = set()
    for t in breakpoints:
        k = round((t - grid.t0) / grid.dt)
        if 0 <= k < grid.n_samples and abs(grid.t0 + k * grid.dt - t) <= 1e-6 * grid.dt:
            nodes.add(int(k))
    return nodes


def _node_samples(shape, grid: TimeGrid, breakpoints: tuple[float, ...]) -> np.ndarray:
    """Node values of ``shape``, right-sided at the breakpoint nodes: those
    are sampled a nudge to the right, since a node's grid time may round just
    below its breakpoint."""
    times = grid.times
    samples = np.array(shape(times), dtype=complex)
    jumps = sorted(_jump_nodes(grid, breakpoints))
    if jumps:
        samples[jumps] = shape(times[jumps] + _EDGE_NUDGE * grid.dt)
    return samples


def _cubic_midpoints(y: np.ndarray) -> np.ndarray:
    """Midpoint values of a smoothly sampled array via 4-point cubics."""
    n = len(y)
    if n == 2:
        return np.array([0.5 * (y[0] + y[1])])
    if n == 3:
        # quadratic through all three points
        return np.array([0.375 * y[0] + 0.75 * y[1] - 0.125 * y[2],
                         -0.125 * y[0] + 0.75 * y[1] + 0.375 * y[2]])
    mid = np.empty(n - 1, dtype=complex)
    mid[1:-1] = (-y[:-3] + 9.0 * y[1:-2] + 9.0 * y[2:-1] - y[3:]) / 16.0
    mid[0] = (5.0 * y[0] + 15.0 * y[1] - 5.0 * y[2] + y[3]) / 16.0
    mid[-1] = (y[-4] - 5.0 * y[-3] + 15.0 * y[-2] + 5.0 * y[-1]) / 16.0
    return mid


def _cubic_left_limit(y: np.ndarray) -> complex:
    """Left-sided limit one step past the last sample of a smooth run."""
    if len(y) >= 4:
        return -y[-4] + 4.0 * y[-3] - 6.0 * y[-2] + 4.0 * y[-1]
    if len(y) == 3:
        return y[-3] - 3.0 * y[-2] + 3.0 * y[-1]
    return 2.0 * y[-1] - y[-2]


def _cell_values(f: WavePacket):
    """Per-step (start, mid, end) values of a packet.

    Step ends come from the node samples, one-sided at breakpoint nodes;
    midpoints from ``shape`` when there is one, else from cubics that never
    cross a breakpoint.
    """
    grid, y = f.grid, f.samples
    n = grid.n_samples
    jumps = _jump_nodes(grid, f.breakpoints)
    if f.shape is not None:
        # midpoints before the step ends: the shape's grid-length temporaries
        # are freed before the two copies are made, which lowers peak memory
        times = grid.times
        vm = np.asarray(f.shape(times[:-1] + 0.5 * grid.dt), dtype=complex)
        v0 = y[:-1].astype(complex)
        v1 = y[1:].astype(complex)
        if jumps:
            # a nudge inside each step: a node's grid time may round to
            # either side of its breakpoint
            k = np.array(sorted(jumps))
            nudge = _EDGE_NUDGE * grid.dt
            v0[k[k < n - 1]] = f.shape(times[k[k < n - 1]] + nudge)
            v1[k[k > 0] - 1] = f.shape(times[k[k > 0]] - nudge)
        return v0, vm, v1
    v0 = y[:-1].astype(complex)
    v1 = y[1:].astype(complex)
    vm = np.empty(n - 1, dtype=complex)
    bounds = sorted(jumps | {0, n - 1})
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b in jumps:
            # node b holds the right-sided limit; the run ending at b needs
            # its final value carried in from the left
            run = y[a:b]
            left = run[-1] if len(run) == 1 else _cubic_left_limit(run)
            seg = np.concatenate([run, [left]])
            v1[b - 1] = left
        else:
            seg = y[a:b + 1]
        vm[a:b] = _cubic_midpoints(seg)
    return v0, vm, v1


def _photon_density(cell_values, dt: float, p: EnsembleParams) -> np.ndarray:
    """Photon probability (1/tau_E) int |F|^2 over each grid step (Simpson)."""
    v0, vm, v1 = (np.abs(v) ** 2 for v in cell_values)
    return (dt / 6.0) * (v0 + 4.0 * vm + v1) / p.tau_E


def packet_norm(f: WavePacket, p: EnsembleParams) -> float:
    """Photon-probability content (1/tau_E) int |F|^2 dt."""
    return float(np.sum(_photon_density(_cell_values(f), f.grid.dt, p)))


def packet_overlap(f: WavePacket, g: WavePacket, p: EnsembleParams) -> complex:
    """Inner product (1/tau_E) int conj(F) G dt on a common grid."""
    _require_same_grid(f.grid, g.grid)
    f0, fm, f1 = _cell_values(f)
    g0, gm, g1 = _cell_values(g)
    total = (f.grid.dt / 6.0) * np.sum(
        np.conj(f0) * g0 + 4.0 * (np.conj(fm) * gm) + np.conj(f1) * g1)
    return complex(total) / p.tau_E


def _require_one_photon(norm: float, slack: float = 1e-6) -> float:
    if norm > 1.0 + slack:
        raise DomainError(f"packet norm {norm} exceeds one photon")
    return norm


def check_single_photon_norm(f: WavePacket, p: EnsembleParams,
                             slack: float = 1e-6) -> float:
    return _require_one_photon(packet_norm(f, p), slack)


def _require_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    if (a.n_samples != b.n_samples or abs(a.t0 - b.t0) > 1e-9 * a.dt
            or abs(a.dt - b.dt) > 1e-12 * a.dt):
        raise GridError("time grids do not match")


# ---------------------------------------------------------------------------
# Integration of the local law and the field output relation
# ---------------------------------------------------------------------------

def _rk4_forcing(cell_values, h: float, p: EnsembleParams):
    """A and the forcing B[k] of the RK4 step c[k+1] = A c[k] + B[k]."""
    if h > p.tau_R * MAX_DT_IN_TAU_R:
        raise RegimeError(
            f"grid dt = {h:.3g} s too coarse: need dt <= tau_R/20 = "
            f"{p.tau_R * MAX_DT_IN_TAU_R:.3g} s"
        )
    a = -0.5 / p.tau_R
    s = -1.0 / np.sqrt(p.tau_R * p.tau_E)
    v0, vm, v1 = cell_values

    # One RK4 step of the affine system is c' = A c + B with constant A;
    # the forcing weights below come from expanding the four stages.
    q = 0.5 * h * a
    big_a = 1.0 + 2 * q + 2 * q**2 + (4.0 / 3.0) * q**3 + (2.0 / 3.0) * q**4
    w0 = 1.0 + 2 * q + 2 * q**2 + 2 * q**3
    wm = 4.0 + 4 * q + 2 * q**2
    # B = (h/6)(w0 s v0 + wm s vm + s v1), built in place: two arrays at a time
    big_b = s * v0
    big_b *= w0
    tmp = s * vm
    tmp *= wm
    big_b += tmp
    big_b += np.multiply(s, v1, out=tmp)
    big_b *= h / 6.0
    return big_a, big_b


def _rk4_recurrence(big_a, big_b: np.ndarray, c0: complex) -> np.ndarray:
    """Amplitudes c[0] = c0, c[k+1] = A c[k] + B[k] at every node.

    A blocked prefix scan: inside a block of L steps the response to the
    block's own forcing is y_i = A^i cumsum_j(B_j A^-j), and the amplitude
    carried in from the previous block adds carry A^(i+1).  L is the largest
    block with |A|^-L <= e, so no weight A^-j exceeds e.
    """
    n = len(big_b)
    mod = abs(big_a)
    # |A| that rounds to 1 gives log|A| = 0: one block, all weights ~1
    size = max(1, n if mod >= 1.0 else min(n, int(-1.0 / np.log(mod))))
    blocks = -(-n // size)
    c = np.zeros(blocks * size + 1, dtype=complex)
    c[0] = c0
    c[1:n + 1] = big_b
    y = c[1:].reshape(blocks, size)
    powers = big_a ** np.arange(size + 1)
    y /= powers[:-1]
    np.cumsum(y, axis=1, out=y)
    y *= powers[:-1]
    carry = complex(c0)
    for row in y:
        row += carry * powers[1:]
        carry = row[-1]
    return c[:n + 1]


def evolve_amplitude(f_in: WavePacket, c0: complex, p: EnsembleParams) -> AmplitudeTrajectory:
    """Integrate dc/dt = -c/(2 tau_R) - F_in/sqrt(tau_R tau_E) from c(t0)=c0."""
    if abs(c0) > 1.0 + 1e-9:
        raise DomainError(f"|c0| = {abs(c0)} exceeds 1")
    big_a, big_b = _rk4_forcing(_cell_values(f_in), f_in.grid.dt, p)
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
# Closed forms and the capture optimum
# ---------------------------------------------------------------------------

def closed_form_rectangular(tau_ph: float, p: EnsembleParams,
                            grid: TimeGrid) -> AmplitudeTrajectory:
    """Exact amplitude for a unit-norm rectangular packet starting at t = t0.

    c(t) = 2 sqrt(tau_R/tau_ph) (e^{-t/2tau_R} - 1) while the packet lasts,
    then free superradiant decay of the value reached at tau_ph.
    """
    if tau_ph < 10.0 * p.tau_E:
        raise RegimeError("tau_ph must be at least 10 tau_E")
    t = grid.times - grid.t0
    pref = 2.0 * np.sqrt(p.tau_R / tau_ph)
    inside = pref * (np.exp(-t / (2 * p.tau_R)) - 1.0)
    c_end = pref * (np.exp(-tau_ph / (2 * p.tau_R)) - 1.0)
    after = c_end * np.exp(-(t - tau_ph) / (2 * p.tau_R))
    c = np.where(t <= tau_ph, inside, after).astype(complex)
    return AmplitudeTrajectory(grid, c)


def closed_form_rising(t_end: float, p: EnsembleParams,
                       grid: TimeGrid) -> AmplitudeTrajectory:
    """Exact amplitude for the rising-exponential packet truncated at t0.

    For t <= t_end:  c = -(e^{(t-t_end)/2tau_R} - e^{-(t+t_end-2 t0)/2tau_R});
    afterwards the mirrored decaying exponential.  The second term is the
    finite-start correction, exponentially small when t_end - t0 >> tau_R.
    """
    two_tr = 2.0 * p.tau_R
    t = grid.times
    attack = -(np.exp((t - t_end) / two_tr)
               - np.exp(-(t + t_end - 2 * grid.t0) / two_tr))
    c_end = -(1.0 - np.exp(-2 * (t_end - grid.t0) / two_tr))
    decay = c_end * np.exp(-(t - t_end) / two_tr)
    c = np.where(t <= t_end, attack, decay).astype(complex)
    return AmplitudeTrajectory(grid, c)


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
