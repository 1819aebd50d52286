import math

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
from subradiance.dynamics import (_EDGE_NUDGE, _cell_values, _jump_nodes,
                                  _rk4_forcing, _rk4_recurrence)
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
    """The packet's cell values equal ``ref`` to 1e-14 relative: at nodes and
    midpoints, and a nudge to either side of every breakpoint node."""
    grid = f.grid
    t = grid.times
    n = grid.n_samples
    nudge = _EDGE_NUDGE * grid.dt
    want0, want1 = ref(t[:-1]), ref(t[1:])
    for k in _jump_nodes(grid, f.breakpoints):
        if k > 0:
            want1[k - 1] = ref(t[k:k + 1] - nudge)[0]
        if k < n - 1:
            want0[k] = ref(t[k:k + 1] + nudge)[0]
    want = (want0, ref(t[:-1] + 0.5 * grid.dt), want1)
    for got, w in zip(_cell_values(f), want):
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
