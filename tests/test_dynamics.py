import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from subradiance import (AmplitudeTrajectory, DomainError, GridError, RegimeError,
                         TimeGrid, WavePacket,
                         closed_form_rectangular, closed_form_rising,
                         evolve_amplitude, forward_scatter, make_grid,
                         optimize_capture, output_field, packet_from_samples,
                         packet_norm, packet_overlap, rectangular_packet,
                         rising_exponential, trajectory_table, zero_packet)
from subradiance import dynamics
from subradiance.dynamics import (_EDGE_NUDGE, _forcing, _jump_nodes, _rk4_forcing,
                                  _rk4_recurrence, _steps)
from subradiance.storage import _timebin_setup, simulate_read, simulate_write


# ---------------------------------------------------------------------------
# grids and packets
# ---------------------------------------------------------------------------

def test_grid_nodes_and_lookup(params):
    grid = make_grid(params, 3 * params.tau_R)
    assert grid.n_samples == 601
    assert grid.times[0] == 0.0
    assert grid.index_of(grid.times[17]) == 17
    with pytest.raises(GridError):
        grid.index_of(grid.times[17] + 0.3 * grid.dt)


def test_grid_places_non_finite_times_off_the_grid(params):
    # no RuntimeWarning from inf - inf: pytest turns warnings into errors
    grid = make_grid(params, 3 * params.tau_R)
    assert grid.nodes_of([np.inf, -np.inf, np.nan, grid.times[3]]).tolist() == [-1, -1, -1, 3]
    for t in (np.inf, np.nan):
        with pytest.raises(GridError, match="not a node"):
            grid.index_of(t)


def test_rectangular_packet_unit_norm(params):
    grid = make_grid(params, 6 * params.tau_R)
    f = rectangular_packet(params, grid, 2.5 * params.tau_R)
    assert packet_norm(f, params) == pytest.approx(1.0, abs=1e-12)
    # a start a hair above the first node: that node holds the packet's value
    grid = make_grid(params, 6 * params.tau_R, t0=0.3 * params.tau_R)
    f = rectangular_packet(params, grid, 2.5 * params.tau_R,
                           np.nextafter(grid.t0, np.inf))
    assert f.samples[0] == math.sqrt(params.tau_E / (2.5 * params.tau_R))
    assert packet_norm(f, params) == pytest.approx(1.0, abs=1e-12)


def test_rectangular_packet_rejects_front_scale(params):
    grid = make_grid(params, 6 * params.tau_R)
    with pytest.raises(RegimeError):
        rectangular_packet(params, grid, 5 * params.tau_E)


def test_rising_exponential_norm(params):
    grid = make_grid(params, 30 * params.tau_R)
    t_end = 25 * params.tau_R
    f = rising_exponential(t_end, params, grid)
    assert packet_norm(f, params) == pytest.approx(
        1.0 - math.exp(-t_end / params.tau_R), abs=1e-9)


def test_zero_packet_is_zero(params):
    grid = make_grid(params, params.tau_R)
    assert packet_norm(zero_packet(grid), params) == 0.0


def _assert_cells_match(f, ref):
    """The packet's step values (``_steps``) equal ``ref`` to 1e-14
    relative: at nodes and midpoints, and a nudge to either side of every
    breakpoint node."""
    grid = f.grid
    t = grid.times
    n = grid.n_samples
    nudge = _EDGE_NUDGE * grid.dt
    want0, want1 = ref(t[:-1]), ref(t[1:])
    for k in _jump_nodes(grid, f.breakpoints)[0]:
        if k > 0:
            want1[k - 1] = ref(t[k:k + 1] - nudge)[0]
        if k < n - 1:
            want0[k] = ref(t[k:k + 1] + nudge)[0]
    want = (want0, ref(t[:-1] + 0.5 * grid.dt), want1)
    y, vm, ks, (v0, v1) = _steps(f)
    # every step starts on its node's sample and ends on the next one's,
    # except the steps ks
    got0, got1 = y[:-1].copy(), y[1:].copy()
    got0[ks], got1[ks] = v0, v1
    for got, w in zip((got0, vm, got1), want):
        assert np.all(np.abs(got - w) <= 1e-14 * np.abs(w))
    # the same values in any order of the sample times
    perm = np.random.default_rng(2).permutation(n)
    assert np.array_equal(f.shape(t[perm]), f.shape(t)[perm])


def test_exponential_pieces_match_closed_forms(params):
    tr2 = 2.0 * params.tau_R
    grid = make_grid(params, 6 * params.tau_R)
    # a packet whose end node's grid time rounds just below the end
    t_start = 0.5 * params.tau_R
    for m in range(400, 800):
        tau_ph = (m / 200) * params.tau_R
        if grid.times[100 + m] < t_start + tau_ph:
            break
    else:
        pytest.fail("no packet end rounds below its node")
    k, t_stop = 100 + m, t_start + tau_ph
    f = rectangular_packet(params, grid, tau_ph, t_start)
    amp = math.sqrt(params.tau_E / tau_ph)
    assert f.samples[k] == 0.0
    _assert_cells_match(f, lambda t: np.where(
        (t >= t_start) & (t < t_stop), amp, 0.0).astype(complex))

    def rising(t, t_end):
        return np.where(t < t_end, math.sqrt(params.tau_E / params.tau_R)
                        * np.exp(np.minimum(t - t_end, 0.0) / tr2), 0.0)

    t_end = 25 * params.tau_R
    _assert_cells_match(rising_exponential(t_end, params, make_grid(params, 30 * params.tau_R)),
                        lambda t: rising(t, t_end).astype(complex))

    alpha, beta, sep = 0.6, 0.8j, 20 * params.tau_R
    f_in, write, read = _timebin_setup(alpha, beta, sep, params, True)
    _assert_cells_match(f_in, lambda t: alpha * rising(t, sep)
                        + beta * np.where(t > sep, rising(t - sep, sep), 0.0))

    ledger, _ = simulate_write(f_in, write, params)
    out, record = simulate_read(ledger, read, params, dt=f_in.grid.dt, write_plan=write)
    on = np.array([e.time for e in read.events[-read.bins:]])
    off = np.append(on[1:], out.grid.t_end)
    a = np.array(record.emitted) / np.sqrt(1.0 - np.exp(-(off - on) / params.tau_R))

    def readout(t):
        total = np.zeros(t.shape, dtype=complex)
        for s, e, ak in zip(on, off, a):
            inside = (t >= s) & (t < e)
            total += np.where(inside, math.sqrt(params.tau_E / params.tau_R) * ak
                              * np.exp(-np.where(inside, t - s, 0.0) / tr2), 0.0)
        return total

    _assert_cells_match(out, readout)


# ---------------------------------------------------------------------------
# closed forms vs the integrator
# ---------------------------------------------------------------------------

def test_rectangular_closed_form(params):
    grid = make_grid(params, 6 * params.tau_R)
    f = rectangular_packet(params, grid, 2.5 * params.tau_R)
    traj = evolve_amplitude(f, 0.0, params)
    ref = closed_form_rectangular(2.5 * params.tau_R, params, grid)
    assert np.max(np.abs(traj.c - ref.c)) < 1e-10


def test_rising_closed_form(params):
    grid = make_grid(params, 30 * params.tau_R)
    f = rising_exponential(25 * params.tau_R, params, grid)
    traj = evolve_amplitude(f, 0.0, params)
    ref = closed_form_rising(25 * params.tau_R, params, grid)
    assert np.max(np.abs(traj.c - ref.c)) < 1e-10
    # peak excitation approaches unity for a long rising exponential
    assert np.max(np.abs(traj.c)) ** 2 == pytest.approx(1.0, abs=1e-8)


def test_rising_literal_asymptote_far_from_start(params):
    # when the packet starts many lifetimes before its end, the finite-start
    # correction term is negligible and |c| during the rise is the bare
    # exponential e^{(t - t_end)/2 tau_R}
    grid = make_grid(params, 35 * params.tau_R)
    t_end = 30 * params.tau_R
    traj = evolve_amplitude(rising_exponential(t_end, params, grid), 0.0, params)
    t = grid.times
    literal = -np.exp(np.minimum(t - t_end, 0.0) / (2 * params.tau_R))
    sel = t <= t_end
    assert np.max(np.abs(traj.c[sel] - literal[sel])) < 1e-6


def test_sampled_packet_path_matches_analytic(params):
    # on the 2.5 tau_R grid the packet's closing breakpoint is the last node
    for span in (6.0, 2.5):
        grid = make_grid(params, span * params.tau_R)
        ref = rectangular_packet(params, grid, 2.5 * params.tau_R)
        f = packet_from_samples(grid, ref.samples, breakpoints=ref.breakpoints)
        ta = evolve_amplitude(ref, 0.0, params)
        tb = evolve_amplitude(f, 0.0, params)
        assert np.max(np.abs(ta.c - tb.c)) < 1e-11


# ---------------------------------------------------------------------------
# independent convolution-quadrature oracle
# ---------------------------------------------------------------------------

def _band_limited(params, grid, rng, n_modes=4):
    """Random smooth packet: sum of slow Fourier modes under a sine window."""
    T = grid.t_end - grid.t0
    ks = rng.integers(1, 6, size=n_modes)
    amps = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)

    def shape(t):
        t = np.asarray(t, dtype=float)
        x = (t - grid.t0) / T
        out = np.zeros(t.shape, dtype=complex)
        for k, a in zip(ks, amps):
            out += a * np.exp(2j * np.pi * k * x)
        return out * np.sin(np.pi * np.clip(x, 0.0, 1.0)) ** 2

    f = WavePacket(grid, shape(grid.times), shape=shape)
    scale = 1.0 / math.sqrt(max(packet_norm(f, params), 1e-300))
    return WavePacket(grid, scale * f.samples,
                      shape=lambda t: scale * shape(t))


def _convolution_oracle(f, params, t):
    """c(t) = -(tau_R tau_E)^{-1/2} int F(u) e^{-(t-u)/2tau_R} du by direct
    adaptive quadrature, independent of the RK4 machinery."""
    def kernel(u, pick):
        v = f.shape(np.array([u]))[0]
        val = (pick(v)) * math.exp(-(t - u) / (2 * params.tau_R))
        return val
    re = quad(lambda u: kernel(u, np.real), f.grid.t0, t,
              limit=400, epsabs=1e-13, epsrel=1e-12)[0]
    im = quad(lambda u: kernel(u, np.imag), f.grid.t0, t,
              limit=400, epsabs=1e-13, epsrel=1e-12)[0]
    return -(re + 1j * im) / math.sqrt(params.tau_R * params.tau_E)


def test_integrator_against_quadrature_oracle(params):
    rng = np.random.default_rng(7)
    grid = make_grid(params, 5 * params.tau_R)
    for _ in range(3):
        f = _band_limited(params, grid, rng)
        traj = evolve_amplitude(f, 0.0, params)
        for frac in (0.3, 0.7, 1.0):
            t = grid.t0 + frac * (grid.t_end - grid.t0)
            want = _convolution_oracle(f, params, t)
            got = traj.c[grid.index_of(grid.times[round(frac * (grid.n_samples - 1))])]
            assert abs(got - want) < 1e-9


def test_initial_amplitude_free_decay(params):
    grid = make_grid(params, 4 * params.tau_R)
    traj = evolve_amplitude(zero_packet(grid), 0.6, params)
    want = 0.6 * np.exp(-(grid.times - grid.t0) / (2 * params.tau_R))
    assert np.max(np.abs(traj.c - want)) < 1e-11


def _step_loop(big_a, big_b, c0):
    c = [complex(c0)]
    for b in big_b:
        c.append(big_a * c[-1] + b)
    return np.array(c)


def test_rk4_recurrence_matches_step_loop(params):
    """The blocked scan against the plain step-by-step recurrence."""
    rng = np.random.default_rng(17)
    cases = []
    for steps_per_tau_r in (200, 20):
        dt = params.tau_R / steps_per_tau_r
        big_a, _ = _rk4_forcing((np.zeros(0),) * 3, dt, params)
        block = int(-1.0 / np.log(big_a))
        cases += [(dt, n) for n in (0, 1, block - 1, block, block + 1, 80_000)]
    # a step so small that A rounds to 1.0
    tiny = TimeGrid(0.0, params.tau_R * 1e-17, 1001)
    cases.append((tiny.dt, tiny.n_samples - 1))
    for dt, n in cases:
        cells = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3)]
        big_a, big_b = _rk4_forcing(cells, dt, params)
        if dt == tiny.dt:
            assert big_a == 1.0
        for c0 in (0.0, 0.6 * np.exp(0.3j)):
            want = _step_loop(big_a, big_b, c0)
            with np.errstate(all="raise"):
                got = _rk4_recurrence(big_a, big_b, c0)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("restarts", [
    [],
    [1, 400, 801],  # spans of 1, 399, 401 and 1302 steps: longer than L = 400
    [5, 6, 7, 2103],  # adjacent restarts, and one on the last node
    [1000, 1001],  # the longest span first
    list(range(300, 2103, 300)),  # every span shorter than L: blocks of 300
], ids=["none", "long-spans", "adjacent-and-last", "longest-first", "short-spans"])
def test_rk4_recurrence_restarts_match_spans_scanned_alone(params, restarts):
    # each span between restarts gets, to the bit, what it gets scanned
    # alone from 0 (from c0 for the first); a restart node holds the left
    # limit, which is the end of the span before it
    rng = np.random.default_rng(23)
    n = 2103
    cells = [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3)]
    big_a, big_b = _rk4_forcing(cells, params.tau_R / 200, params)
    assert int(-1.0 / np.log(big_a)) == 400
    c0 = 0.6 * np.exp(0.3j)
    got = _rk4_recurrence(big_a, big_b, c0, restarts)
    assert got.shape == (n + 1,) and got[0] == c0
    bounds = [0, *restarts, n]
    for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        alone = _rk4_recurrence(big_a, big_b[a:b], c0 if i == 0 else 0.0)
        assert got[a + 1:b + 1].tobytes() == alone[1:].tobytes()
    # a restart discards what was carried: zero forcing after one stays zero
    quiet = big_b.copy()
    quiet[1000:] = 0.0
    assert not np.any(_rk4_recurrence(big_a, quiet, c0, [1000])[1001:])


def test_closed_forms_match_their_formulas(params):
    # the exact propagator against the formulas in the docstrings
    grid = make_grid(params, 6 * params.tau_R, t0=0.3 * params.tau_R)
    t, tr2, x = grid.times - grid.t0, 2 * params.tau_R, 2.5 * params.tau_R
    pref = 2 * math.sqrt(params.tau_R / x)
    rect = np.where(t <= x, pref * (np.exp(-t / tr2) - 1),
                    pref * (math.exp(-x / tr2) - 1) * np.exp(-(t - x) / tr2))
    assert np.max(np.abs(closed_form_rectangular(x, params, grid).c - rect)) < 1e-14
    t_end = grid.t0 + 4 * params.tau_R
    t = grid.times
    rise = np.where(t <= t_end,
                    -(np.exp((t - t_end) / tr2) - np.exp(-(t + t_end - 2 * grid.t0) / tr2)),
                    -(1 - math.exp(-2 * (t_end - grid.t0) / tr2)) * np.exp(-(t - t_end) / tr2))
    assert np.max(np.abs(closed_form_rising(t_end, params, grid).c - rise)) < 1e-14


# ---------------------------------------------------------------------------
# conservation, linearity, covariance
# ---------------------------------------------------------------------------

def test_flux_conservation_random_inputs(params):
    rng = np.random.default_rng(11)
    grid = make_grid(params, 5 * params.tau_R)
    for _ in range(20):
        f = _band_limited(params, grid, rng)
        traj = evolve_amplitude(f, 0.0, params)
        f_out = output_field(f, traj, params)
        budget = abs(traj.c[-1]) ** 2 + packet_norm(f_out, params)
        assert budget == pytest.approx(packet_norm(f, params), abs=1e-6)


def test_linearity_and_phase_covariance(params):
    rng = np.random.default_rng(13)
    grid = make_grid(params, 4 * params.tau_R)
    f = _band_limited(params, grid, rng)
    g = _band_limited(params, grid, rng)
    a, b = 0.3 - 0.2j, 0.5 + 0.1j
    mix = WavePacket(grid, a * f.samples + b * g.samples,
                     shape=lambda t: a * f.shape(t) + b * g.shape(t))
    lhs = evolve_amplitude(mix, 0.0, params).c
    rhs = (a * evolve_amplitude(f, 0.0, params).c
           + b * evolve_amplitude(g, 0.0, params).c)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    phase = np.exp(1j * 0.83)
    rot = WavePacket(grid, phase * f.samples, shape=lambda t: phase * f.shape(t))
    assert np.max(np.abs(evolve_amplitude(rot, 0.0, params).c
                         - phase * evolve_amplitude(f, 0.0, params).c)) < 1e-12


def test_forward_scatter_preserves_norm(params):
    grid = make_grid(params, 40 * params.tau_R)
    f = rectangular_packet(params, grid, 2.5 * params.tau_R)
    f_out = forward_scatter(f, params)
    # after ~37 lifetimes everything has been re-emitted
    assert packet_norm(f_out, params) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.xfail(strict=True, reason=(
    "defect B: a front between grid nodes is on no node, so no step takes "
    "its one-sided limits and the RK4 steps and the quadratures straddle it"))
@pytest.mark.parametrize("offset", [0.5, 0.98])
def test_scatter_of_a_front_between_nodes_keeps_the_photon_budget(params, offset):
    # a 2.5 tau_R rectangular packet whose fronts lie ``offset`` dt right of
    # their nodes, on the CLI scatter's 6 tau_R grid: what leaves the mode
    # and what is left in it add up to what came in
    grid = make_grid(params, 6 * params.tau_R)
    f_in = rectangular_packet(params, grid, 2.5 * params.tau_R, offset * grid.dt)
    traj = evolve_amplitude(f_in, 0.0, params)
    f_out = output_field(f_in, traj, params)
    residual = packet_norm(f_out, params) + abs(traj.c[-1]) ** 2 - packet_norm(f_in, params)
    assert abs(residual) <= 1e-9


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

def test_overlap_matches_analytic(params):
    grid = make_grid(params, 30 * params.tau_R)
    f = rising_exponential(20 * params.tau_R, params, grid)
    g = rising_exponential(25 * params.tau_R, params, grid)
    # int e^{(t-a)/2tr} e^{(t-b)/2tr} dt over the common support
    a, b = 20 * params.tau_R, 25 * params.tau_R
    want = math.exp(-(b - a) / (2 * params.tau_R)) * (
        1.0 - math.exp(-a / params.tau_R))
    assert packet_overlap(f, g, params) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("scored", ["evolve_amplitude", "packet_overlap"])
def test_forcing_and_overlap_peak_below_three_and_a_half_grid_arrays(params, scored):
    # 200,001 nodes, with the packets' samples built before the trace: the
    # forcing, built from copies of the step starts and ends, peaked at 5
    # grid arrays (16 n bytes each), and the overlap, from both packets'
    # copies, at 8
    grid = make_grid(params, 1000 * params.tau_R)
    rect = rectangular_packet(params, grid, 2.5 * params.tau_R, 10 * params.tau_R)
    rise = rising_exponential(500 * params.tau_R, params, grid)
    sampled = packet_from_samples(grid, rise.samples, rise.breakpoints)
    rect.samples
    pairs = [(rect, rise), (sampled, rise)]
    for f, g in pairs:
        tracemalloc.start()
        try:
            if scored == "evolve_amplitude":
                evolve_amplitude(f, 0.0, params)
            else:
                packet_overlap(f, g, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 16 * grid.n_samples


def test_overlap_requires_common_grid(params):
    g1 = make_grid(params, 2 * params.tau_R)
    g2 = make_grid(params, 3 * params.tau_R)
    with pytest.raises(GridError):
        packet_overlap(zero_packet(g1), zero_packet(g2), params)


# ---------------------------------------------------------------------------
# capture optimum and guards
# ---------------------------------------------------------------------------

def test_optimize_capture(params):
    dur, amp = optimize_capture(params)
    x = dur / params.tau_R
    # independent check of the stationarity condition (1+x) e^{-x/2} = 1
    assert (1 + x) * math.exp(-x / 2) == pytest.approx(1.0, abs=1e-10)
    assert amp == pytest.approx(2 * (1 - math.exp(-x / 2)) / math.sqrt(x),
                                rel=1e-12)
    assert 2.45 < x < 2.58
    assert 0.900 < amp < 0.905


def test_coarse_grid_rejected(params):
    grid = make_grid(params, 6 * params.tau_R, dt=params.tau_R / 10)
    f = rectangular_packet(params, grid, 2.5 * params.tau_R)
    with pytest.raises(RegimeError):
        evolve_amplitude(f, 0.0, params)


def test_overfilled_amplitude_rejected(params):
    # rejected before the packet is sampled
    f = zero_packet(make_grid(params, params.tau_R))
    calls = []

    def counted(t):
        calls.append(t)
        return f.shape(t)

    with pytest.raises(DomainError):
        evolve_amplitude(WavePacket(f.grid, f.samples, shape=counted), 1.5, params)
    assert calls == []


def test_a_non_finite_amplitude_is_refused(params):
    f = zero_packet(make_grid(params, params.tau_R))
    for c0 in (math.nan, complex(0.0, math.nan)):
        with pytest.raises(DomainError, match=r"c0 = .*nan.* is not finite"):
            evolve_amplitude(f, c0, params)


def test_trajectory_table_shape(params):
    grid = make_grid(params, params.tau_R)
    f = rectangular_packet(params, grid, 0.5 * params.tau_R)
    traj = evolve_amplitude(f, 0.0, params)
    text = trajectory_table(f, traj, output_field(f, traj, params))
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == ["t", "re_f_in", "im_f_in", "re_c", "im_c",
                                    "re_f_out", "im_f_out"]
    assert len(lines) == grid.n_samples + 1
    # every value formatted as format(v, ".12g"), also the special ones
    vals = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
                     1.0 / 3.0, -123456789.123456789, 1e300, 7.0], dtype=float)
    g = TimeGrid(0.0, 1.0, len(vals))

    def cx(re, im):
        z = np.empty(len(re), dtype=complex)
        z.real, z.imag = re, im
        return z

    f_in = packet_from_samples(g, cx(vals, vals[::-1]))
    f_out = packet_from_samples(g, cx(-vals[::-1], np.roll(vals, 3)))
    traj = AmplitudeTrajectory(g, cx(np.roll(vals, 5), -vals))
    want = [lines[0]] + ["\t".join(format(v, ".12g") for v in row) for row in zip(
        g.times, f_in.samples.real, f_in.samples.imag, traj.c.real, traj.c.imag,
        f_out.samples.real, f_out.samples.imag)]
    assert trajectory_table(f_in, traj, f_out) == "\n".join(want) + "\n"


# ---------------------------------------------------------------------------
# the sampled write from node sums, against the per-step formula
# ---------------------------------------------------------------------------

def _per_step_cells(f):
    """(start, mid, end) of every step as separate arrays, one-sided at the
    breakpoint nodes: a nudge either side of the breakpoint from ``shape``,
    else the node sample and the cubic left limit of the run ending there;
    midpoints from ``shape``, else 4-point cubics that never cross a
    breakpoint."""
    grid, y = f.grid, f.samples
    n = grid.n_samples
    jumps = dict(zip(*(v.tolist() for v in _jump_nodes(grid, f.breakpoints))))
    v0, v1 = y[:-1].astype(complex), y[1:].astype(complex)
    if f.shape is not None:
        vm = np.asarray(f.shape(grid.times[:-1] + 0.5 * grid.dt), dtype=complex)
        nudge = _EDGE_NUDGE * grid.dt
        for k, t in jumps.items():
            if k < n - 1:
                v0[k] = f.shape(np.array([t + nudge]))[0]
            if k > 0:
                v1[k - 1] = f.shape(np.array([t - nudge]))[0]
        return v0, vm, v1

    def left_limit(run):
        if len(run) == 1:
            return run[-1]
        if len(run) == 2:
            return 2.0 * run[-1] - run[-2]
        if len(run) == 3:
            return run[-3] - 3.0 * run[-2] + 3.0 * run[-1]
        return -run[-4] + 4.0 * run[-3] - 6.0 * run[-2] + 4.0 * run[-1]

    def midpoints(seg):
        if len(seg) == 2:
            return np.array([0.5 * (seg[0] + seg[1])])
        if len(seg) == 3:
            return np.array([0.375 * seg[0] + 0.75 * seg[1] - 0.125 * seg[2],
                             -0.125 * seg[0] + 0.75 * seg[1] + 0.375 * seg[2]])
        mid = np.empty(len(seg) - 1, dtype=complex)
        mid[1:-1] = (-seg[:-3] + 9.0 * seg[1:-2] + 9.0 * seg[2:-1] - seg[3:]) / 16.0
        mid[0] = (5.0 * seg[0] + 15.0 * seg[1] - 5.0 * seg[2] + seg[3]) / 16.0
        mid[-1] = (seg[-4] - 5.0 * seg[-3] + 15.0 * seg[-2] + 5.0 * seg[-1]) / 16.0
        return mid

    vm = np.empty(n - 1, dtype=complex)
    bounds = sorted(set(jumps) | {0, n - 1})
    for a, b in zip(bounds[:-1], bounds[1:]):
        seg = y[a:b + 1].astype(complex)
        if b in jumps:
            seg[-1] = v1[b - 1] = left_limit(y[a:b])
        vm[a:b] = midpoints(seg)
    return v0, vm, v1


def _per_step_write(f, params, edges):
    """Input norm and each bin's captured amplitude, photon number and int F
    from per-step arrays: Simpson's rule on every step, and the captured
    amplitude sum_k A^(e-1-k) B[k] of the RK4 forcing, bin by bin."""
    dt = f.grid.dt
    cells = _per_step_cells(f)
    v0, vm, v1 = cells
    photons = ((dt / 6.0) / params.tau_E) * (
        np.abs(v0) ** 2 + 4.0 * np.abs(vm) ** 2 + np.abs(v1) ** 2)
    flux = (dt / 6.0) * (v0 + 4.0 * vm + v1)
    big_a, big_b = _rk4_forcing(cells, dt, params)
    bins = list(zip([0, *edges[:-1]], edges))
    captured = [np.dot(big_a ** np.arange(e - a)[::-1], big_b[a:e]) for a, e in bins]
    return (np.sum(photons), np.array(captured),
            np.array([np.sum(photons[a:e]) for a, e in bins]),
            np.array([np.sum(flux[a:e]) for a, e in bins]))


def _assert_overlap_and_forcing_match(f, g, params):
    """``packet_overlap(f, g)`` against Simpson's rule on both packets'
    per-step values, and each packet's RK4 forcing against ``_rk4_forcing``
    on its per-step values, to 1e-13 of their scales."""
    dt = f.grid.dt
    (f0, fm, f1), (g0, gm, g1) = _per_step_cells(f), _per_step_cells(g)
    want = (dt / 6.0) * np.sum(
        np.conj(f0) * g0 + 4.0 * (np.conj(fm) * gm) + np.conj(f1) * g1) / params.tau_E
    scale = (dt / 6.0) * np.sum(
        np.abs(f0 * g0) + 4.0 * np.abs(fm * gm) + np.abs(f1 * g1)) / params.tau_E
    assert abs(packet_overlap(f, g, params) - want) <= 1e-13 * scale
    for h in (f, g):
        want_a, want_b = _rk4_forcing(_per_step_cells(h), dt, params)
        big_a, big_b = _forcing(h, params)
        assert big_a == want_a
        assert np.max(np.abs(big_b - want_b)) <= 1e-13 * np.max(np.abs(want_b))


def _seeded_sampled_write(params, seed):
    """A complex piecewise-smooth shape over uneven bins, with an exactly
    empty bin, breakpoints inside the bins and on their edges, each up to
    0.9e-6 dt off its node, and either a grid tail or a last edge on the
    last node.  Returns the shape packet, whose node samples are the shape
    at the node times (the left value where a breakpoint lies right of its
    node, so the step from there starts on a value other than its sample);
    its samples-only twin, right-sided on every breakpoint node; the edges;
    and the empty bin's index."""
    rng = np.random.default_rng(seed)
    dt = params.tau_R / 200
    t0 = float(rng.uniform(0, 2)) * params.tau_R
    spans = rng.integers(3, 300, size=int(rng.integers(3, 7)))
    edges = np.cumsum(spans)
    tail = int(rng.integers(1, 200)) if seed % 2 else 0
    grid = make_grid(params, (edges[-1] + tail) * dt, t0=t0, dt=dt)
    interior = rng.choice(np.setdiff1d(np.arange(1, edges[-1]), edges), size=3,
                          replace=False)
    nodes = np.unique(np.concatenate([[0], edges, interior]))
    bps = t0 + nodes * dt + rng.uniform(-0.9e-6, 0.9e-6, len(nodes)) * dt
    assert grid.nodes_of(bps).tolist() == nodes.tolist()
    # piece j runs from bps[j - 1] on; the pieces inside one bin are zero
    amps = rng.normal(size=len(nodes) + 1) + 1j * rng.normal(size=len(nodes) + 1)
    rates = rng.uniform(-1, 1, len(nodes) + 1) + 5j * rng.normal(size=len(nodes) + 1)
    refs = np.append(t0, bps)
    empty = int(rng.integers(1, len(edges)))
    amps[np.flatnonzero((nodes >= edges[empty - 1]) & (nodes < edges[empty])) + 1] = 0.0
    amps[0] = 0.0
    breakpoints = tuple(bps.tolist())

    def packet(level):
        def shape(t):
            t = np.asarray(t, dtype=float)
            j = np.searchsorted(bps, t, side="right")
            return level * amps[j] * np.exp(rates[j] * (t - refs[j]) / params.tau_R)

        return WavePacket(grid, shape(grid.times), shape=shape, breakpoints=breakpoints)

    f = packet(math.sqrt(0.9 / _per_step_write(packet(1.0), params, edges.tolist())[0]))
    right_sided = dynamics._node_samples(f.shape, grid, breakpoints)
    assert not np.array_equal(f.samples, right_sided)
    return (f, packet_from_samples(grid, right_sided, breakpoints), edges.tolist(),
            empty)


@pytest.mark.parametrize("seed", range(8))
def test_node_sum_write_matches_the_per_step_formula(params, seed):
    shaped, sampled, edges, empty = _seeded_sampled_write(params, seed)
    assert (edges[-1] == shaped.grid.n_samples - 1) == (seed % 2 == 0)
    for f in (shaped, sampled):
        ends = f.grid.t0 + f.grid.dt * np.array(edges)
        in_norm, _, captured, photons, flux = dynamics._bins_from_zero(
            f, params, edges, ends)
        want = _per_step_write(f, params, edges)
        got = (in_norm, captured, np.array(photons), np.array(flux))
        for name, g, w in zip(("input norm", "captured", "photons", "flux"), got, want):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), name
        assert abs(packet_norm(f, params) - want[0]) <= 1e-13 * want[0]
        assert want[1][empty] == want[2][empty] == 0
    # right-sided samples of an empty bin cancel its edge terms exactly
    assert captured[empty] == photons[empty] == flux[empty] == 0
    # the overlap and the forcing read the same steps; a twin that declares
    # every other breakpoint has other steps with limits
    fewer = packet_from_samples(sampled.grid, sampled.samples, sampled.breakpoints[::2])
    for f, g in ((shaped, sampled), (sampled, fewer), (fewer, shaped)):
        _assert_overlap_and_forcing_match(f, g, params)


def test_overlap_and_forcing_of_analytic_packets_match_the_per_step_formula(params):
    # a rectangular packet, one whose fronts lie 0.9e-6 dt right of their
    # nodes, and a rising exponential whose end lies inside both
    grid = make_grid(params, 8 * params.tau_R, t0=0.3 * params.tau_R)
    rect = rectangular_packet(params, grid, 2.5 * params.tau_R, grid.times[40])
    off = rectangular_packet(params, grid, 2.5 * params.tau_R,
                             grid.times[41] + 0.9e-6 * grid.dt)
    assert grid.nodes_of(off.breakpoints).tolist() == [41, 541]
    rise = rising_exponential(grid.times[300], params, grid)
    for f, g in ((rect, rise), (rise, off), (off, rect)):
        _assert_overlap_and_forcing_match(f, g, params)
