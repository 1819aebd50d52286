import copy
import dataclasses
import math

import numpy as np
import pytest

from subradiance import (ModeLedger, PlanError, SignPattern, end_to_end,
                         make_grid, packet_norm, plan_passive, plan_read, plan_write,
                         WavePacket, rectangular_packet, rising_exponential,
                         simulate_read, simulate_write, timebin_qubit_fidelity,
                         timebin_qubit_report, verify_plan)


def _rect_setup(params, bins=3, bin_in_tau_r=2.5, time_reversed=True):
    bd = bin_in_tau_r * params.tau_R
    write = plan_write(4, bins, bd)
    read = plan_read(4, bins, bd, time_reversed=time_reversed, t0=write.t_end)
    grid = make_grid(params, write.t_end)
    f_in = rectangular_packet(params, grid, bins * bd)
    return f_in, write, read


def _piecewise_setup(params, amps, parts, time_reversed, bin_in_tau_r=2.5):
    """Analytic piecewise-constant input carrying photon amplitude amps[n]
    in bin n + 1, stored over ``parts`` parts in equal bins."""
    bins = len(amps)
    bd = bin_in_tau_r * params.tau_R
    write = plan_write(parts, bins, bd)
    read = plan_read(parts, bins, bd, time_reversed=time_reversed,
                     t0=write.t_end)
    grid = make_grid(params, write.t_end)
    level = np.asarray(amps, dtype=complex) * math.sqrt(params.tau_E / bd)

    def shape(t):
        k = np.floor(np.asarray(t, dtype=float) / bd).astype(np.int64)
        return np.where((k >= 0) & (k < bins), level[np.clip(k, 0, bins - 1)], 0.0)

    edges = tuple(k * bd for k in range(bins + 1))
    return WavePacket(grid, shape(grid.times), shape=shape, breakpoints=edges), write, read


# ---------------------------------------------------------------------------
# ledger algebra
# ---------------------------------------------------------------------------

def test_ledger_norm_preserved_under_masks():
    rng = np.random.default_rng(3)
    ledger = ModeLedger(4)
    ledger.active_amplitude = 0.3 + 0.1j
    ledger.active_bin = 1
    ledger.apply_mask(SignPattern((1, -1, 1, -1)), capture_bin=1)
    before = ledger.total_norm_sq()
    for _ in range(50):
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=4))
        if all(s == signs[0] for s in signs):
            continue
        ledger.apply_mask(SignPattern(signs))
        assert ledger.total_norm_sq() == pytest.approx(before, abs=1e-15)


def test_ledger_reactivation_sign():
    ledger = ModeLedger(4)
    ledger.active_amplitude = -0.5
    ledger.active_bin = 1
    mask = SignPattern((1, -1, -1, 1))
    ledger.apply_mask(mask, capture_bin=1)
    assert ledger.active_amplitude == 0.0
    # the same mask returns the row to all-plus with its original amplitude
    ledger.apply_mask(mask)
    assert ledger.active_amplitude == pytest.approx(-0.5)
    assert ledger.active_bin == 1
    assert not ledger.entries


def test_ledger_minus_uniform_row_folds_sign():
    ledger = ModeLedger(2)
    ledger.active_amplitude = 0.4
    ledger.active_bin = 1
    ledger.apply_mask(SignPattern((1, -1)), capture_bin=1)  # row (+,-)
    ledger.apply_mask(SignPattern((-1, 1)))  # row -> (-,-) = minus all-plus
    assert ledger.active_amplitude == pytest.approx(-0.4)


@pytest.mark.parametrize("parts", [2, 4, 8, 16, 32])
def test_ledger_releases_bins_as_verifier_predicts(parts):
    for bins in range(1, parts):
        write = plan_write(parts, bins, 1.0)
        for time_reversed in (False, True):
            read = plan_read(parts, bins, 1.0, time_reversed=time_reversed)
            report = verify_plan(read, write_plan=write)
            ledger = ModeLedger(parts)
            for n, e in enumerate(write.events, start=1):
                ledger.active_amplitude = 1.0
                ledger.active_bin = n
                ledger.apply_mask(e.mask, capture_bin=n)
                assert ledger.active_bin is None
            order, signs = [], []
            for e in read.events:
                ledger.apply_mask(e.mask)
                order.append(ledger.active_bin)
                signs.append(int(ledger.active_amplitude.real))
                ledger.active_amplitude = 0.0  # emitted in full
            assert tuple(order) == report.emission_order
            assert tuple(signs) == report.emission_signs
            assert not ledger.entries


def _decay(ledger, rate, duration):
    for e in ledger.entries:
        e.amplitude *= math.exp(-rate * duration / 2.0)


@pytest.mark.parametrize("parts", [2, 4, 8, 16, 32])
def test_closed_form_matches_ledger_replay(params, parts):
    # stored and emitted amplitudes against a mask-by-mask ledger replay,
    # with storage loss and pulse failure
    rng = np.random.default_rng(parts)
    loss, s = 0.3 / params.tau_R, 0.97
    for bins in range(1, parts):
        amps = rng.normal(size=bins) + 1j * rng.normal(size=bins)
        f_in, write, _ = _piecewise_setup(params, amps / np.linalg.norm(amps), parts,
                                          False, bin_in_tau_r=0.5)
        captured = simulate_write(f_in, write, params)[0].amplitudes_by_bin()
        ledger, _ = simulate_write(f_in, write, params, loss, s)
        ref, t = ModeLedger(parts), f_in.grid.t0
        for n, e in enumerate(write.events, start=1):
            _decay(ref, loss, e.time - t)
            ref.active_amplitude, ref.active_bin, t = captured[n], n, e.time
            ref.apply_mask(e.mask, capture_bin=n, success_amplitude=s)
        _decay(ref, loss, f_in.grid.t_end - t)
        stored = ledger.amplitudes_by_bin()
        want = ref.amplitudes_by_bin()
        assert sorted(stored) == sorted(want) == list(range(1, bins + 1))
        assert max(abs(stored[n] - want[n]) for n in want) < 1e-12
        for time_reversed in (False, True):
            read = plan_read(parts, bins, write.bin_duration,
                             time_reversed=time_reversed, t0=write.t_end)
            _, record = simulate_read(ledger, read, params, loss, dt=f_in.grid.dt,
                                      write_plan=write, pulse_success_amplitude=s)
            replay, emitted = copy.deepcopy(ref), {}
            for e, t_off in zip(read.events, [*(e.time for e in read.events[1:]),
                                              read.t_end]):
                replay.apply_mask(e.mask, success_amplitude=s)
                _decay(replay, loss, t_off - e.time)
                amp, lag = replay.active_amplitude, (t_off - e.time) / params.tau_R
                emitted[replay.active_bin] = amp * math.sqrt(1.0 - math.exp(-lag))
                replay.active_amplitude = amp * math.exp(-lag / 2.0)
            assert record.bins == tuple(emitted)
            assert max(abs(a - b) for a, b in zip(record.emitted,
                                                  emitted.values())) < 1e-12


def test_passive_plans_store_and_recall_like_active(params):
    bd = 2.5 * params.tau_R
    write = plan_write(8, 5, bd)
    grid = make_grid(params, write.t_end)
    f_in = rectangular_packet(params, grid, 5 * bd)
    loss, s = 0.05 / params.tau_R, 0.98
    for time_reversed in (False, True):
        read = plan_read(8, 5, bd, time_reversed, write.t_end)
        active = end_to_end(f_in, write, read, params, loss, s)
        passive_write = plan_passive(8, 5, bd, "write")
        passive = end_to_end(f_in, passive_write,
                             plan_passive(8, 5, bd, "read", time_reversed,
                                          passive_write.t_end), params, loss, s)
        for name in ("write_efficiency", "read_efficiency", "total_efficiency",
                     "fidelity"):
            assert abs(getattr(passive, name) - getattr(active, name)) < 1e-12
        assert passive.emitted.keys() == active.emitted.keys()


def test_read_rejects_ledger_of_another_write_plan(params):
    bd = 2.5 * params.tau_R
    write = plan_write(8, 5, bd)
    f_in = rectangular_packet(params, make_grid(params, write.t_end), 5 * bd)
    ledger, _ = simulate_write(f_in, write, params)
    with pytest.raises(PlanError, match="not written by"):
        simulate_read(ledger, plan_read(8, 3, bd, t0=write.t_end), params)
    with pytest.raises(PlanError, match="not written by"):
        simulate_read(ModeLedger(4), plan_read(8, 5, bd, t0=write.t_end), params,
                      write_plan=write)


# ---------------------------------------------------------------------------
# write stage
# ---------------------------------------------------------------------------

def test_write_captures_equal_bins(params):
    f_in, write, _ = _rect_setup(params)
    ledger, transmitted = simulate_write(f_in, write, params)
    amps = ledger.amplitudes_by_bin()
    assert sorted(amps) == [1, 2, 3]
    mags = [abs(a) for a in amps.values()]
    assert max(mags) - min(mags) < 1e-12
    # captured amplitude of a 2.5 tau_R rectangular bin
    x = 2.5
    per_bin_amp = 2 * (1 - math.exp(-x / 2)) / math.sqrt(x) / math.sqrt(3)
    assert mags[0] == pytest.approx(per_bin_amp, rel=1e-9)
    # photon budget: stored + transmitted = input
    assert (ledger.stored_norm_sq() + packet_norm(transmitted, params)
            == pytest.approx(packet_norm(f_in, params), abs=1e-6))


def test_write_requires_events_on_grid(params):
    f_in, write, _ = _rect_setup(params)
    off = plan_write(4, 3, 2.5 * params.tau_R * 1.0001)
    with pytest.raises(PlanError):
        simulate_write(f_in, off, params)


def test_write_rejects_two_events_on_one_node(params):
    f_in, _, _ = _rect_setup(params)
    dt = f_in.grid.dt
    # three pulses 1e-8 dt apart all round to node 5: two bins would be empty
    crowded = plan_write(4, 3, 1e-8 * dt, t0=5 * dt)
    assert verify_plan(crowded).ok
    with pytest.raises(PlanError, match="one grid node"):
        simulate_write(f_in, crowded, params)


def test_run_path_builds_no_sign_patterns(params, monkeypatch):
    built = []
    check = SignPattern.__post_init__
    monkeypatch.setattr(SignPattern, "__post_init__",
                        lambda self: (built.append(self), check(self)))
    for passive in (False, True):
        f_in, write, read = _rect_setup(params)
        if passive:
            write = plan_passive(4, 3, write.bin_duration, stage="write")
            read = plan_passive(4, 3, write.bin_duration, stage="read",
                                t0=write.t_end)
        report = end_to_end(f_in, write, read, params)
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)
    assert built == []
    # the event view is where masks become sign patterns
    assert len(write.events) == len(built) == 4


def test_write_loss_decays_stored(params):
    f_in, write, _ = _rect_setup(params)
    loss = 0.05 / params.tau_R
    clean, _ = simulate_write(f_in, write, params)
    lossy, _ = simulate_write(f_in, write, params, loss_rate=loss)
    assert lossy.stored_norm_sq() < clean.stored_norm_sq()
    # bin 1 sits in storage for two full bins longer than bin 3
    rel = (abs(lossy.amplitudes_by_bin()[1] / lossy.amplitudes_by_bin()[3])
           / abs(clean.amplitudes_by_bin()[1] / clean.amplitudes_by_bin()[3]))
    assert rel == pytest.approx(math.exp(-loss * 2 * 2.5 * params.tau_R / 2),
                                rel=1e-9)


# ---------------------------------------------------------------------------
# read stage and full chain
# ---------------------------------------------------------------------------

def test_read_releases_in_plan_order(params):
    f_in, write, read = _rect_setup(params, time_reversed=True)
    ledger, _ = simulate_write(f_in, write, params)
    stored = ledger.amplitudes_by_bin()
    output, record = simulate_read(ledger, read, params, write_plan=write,
                                   loss_rate=0.1 / params.tau_R)
    assert record.bins == (3, 2, 1)
    # the read leaves the caller's ledger as it was, so it can be read again
    assert ledger.amplitudes_by_bin() == stored and ledger.active_amplitude == 0
    fwd_read = plan_read(4, 3, 2.5 * params.tau_R, t0=write.t_end)
    _, record2 = simulate_read(ledger, fwd_read, params, write_plan=write)
    assert record2.bins == (1, 2, 3)


def test_read_leftover_closes_the_photon_budget(params):
    # at zero loss every stored photon is either emitted or parked again
    bd = 2.5 * params.tau_R
    write = plan_write(8, 5, bd)
    f_in = rectangular_packet(params, make_grid(params, write.t_end), 5 * bd)
    ledger, _ = simulate_write(f_in, write, params)
    _, record = simulate_read(ledger, plan_read(8, 5, bd, t0=write.t_end), params,
                              write_plan=write)
    assert len(record.leftover) == len(record.emitted) == len(record.bins) == 5
    budget = sum(abs(a) ** 2 for a in (*record.emitted, *record.leftover))
    assert abs(ledger.stored_norm_sq() - budget) < 1e-12


def test_end_to_end_efficiencies(params):
    f_in, write, read = _rect_setup(params)
    rep = end_to_end(f_in, write, read, params)
    x = 2.5
    write_eff = (2 * (1 - math.exp(-x / 2))) ** 2 / x
    read_eff = 1 - math.exp(-x)
    assert rep.write_efficiency == pytest.approx(write_eff, abs=1e-9)
    assert rep.read_efficiency == pytest.approx(read_eff, abs=1e-9)
    assert rep.total_efficiency == pytest.approx(write_eff * read_eff, abs=1e-9)
    assert rep.fidelity == pytest.approx(1.0, abs=1e-9)
    assert rep.bin_probability_error < 1e-9


def test_end_to_end_output_norm_consistent(params):
    f_in, write, read = _rect_setup(params)
    rep = end_to_end(f_in, write, read, params)
    assert packet_norm(rep.output, params) == pytest.approx(
        rep.total_efficiency, abs=1e-9)


def test_emitted_phase_matches_input_phase(params):
    # a global phase on the input must reappear on the recalled field
    f_in, write, read = _rect_setup(params)
    phase = np.exp(1j * 1.1)
    rotated = WavePacket(f_in.grid, phase * f_in.samples,
                         shape=lambda t: phase * f_in.shape(t),
                         breakpoints=f_in.breakpoints)
    rep = end_to_end(rotated, write, read, params)
    for e in rep.emitted.values():
        assert np.angle(e / phase) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("time_reversed", [False, True])
def test_recall_with_empty_interior_bin(params, time_reversed):
    # an exactly empty middle bin emits nothing; later slots must not shift
    amps = [1 / math.sqrt(2), 0.0, 1j / math.sqrt(2)]
    f_in, write, read = _piecewise_setup(params, amps, 4, time_reversed)
    rep = end_to_end(f_in, write, read, params)
    assert sorted(rep.emitted) == [1, 3]
    assert rep.fidelity == pytest.approx(1.0, abs=1e-9)
    assert rep.bin_probability_error < 1e-9


def test_recall_of_random_complex_bins_is_exact(params):
    # each bin's phase comes from its own samples, not a neighbour's edge node
    rng = np.random.default_rng(11)
    amps = rng.normal(size=7) + 1j * rng.normal(size=7)
    amps /= np.linalg.norm(amps)
    f_in, write, read = _piecewise_setup(params, amps, 8, time_reversed=True)
    rep = end_to_end(f_in, write, read, params)
    assert abs(rep.fidelity - 1.0) < 1e-12


def test_end_to_end_samples_the_input_shape_once(params):
    # one write pass: the photon check, the input and bin norms and the
    # integrator all read the three cell-value arrays sampled at its start;
    # step ends come from the node samples, so the shape is evaluated only
    # at the midpoints and on both sides of the breakpoint nodes
    f_in, write, read = _piecewise_setup(params, [0.6, 0.48j, -0.64], 4,
                                         time_reversed=True)
    points = []

    def counted(t):
        points.append(np.size(t))
        return f_in.shape(t)

    rep = end_to_end(dataclasses.replace(f_in, shape=counted), write, read, params)
    # breakpoints 0, T, 2T and 3T all sit on nodes
    assert sum(points) <= (f_in.grid.n_samples - 1) + 2 * 4
    assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
    assert rep.input_norm == pytest.approx(packet_norm(f_in, params), abs=1e-15)


def test_pulse_failure_scales_per_bin(params):
    f_in, write, read = _rect_setup(params)
    p_fail = 0.01
    rep0 = end_to_end(f_in, write, read, params)
    rep1 = end_to_end(f_in, write, read, params,
                      pulse_success_amplitude=math.sqrt(1 - p_fail))
    assert rep1.total_efficiency < rep0.total_efficiency
    # with time reversal, bin n sees 4-n write pulses and 4-n read pulses
    for n in (1, 2, 3):
        ratio = abs(rep1.emitted[n] / rep0.emitted[n]) ** 2
        assert ratio == pytest.approx((1 - p_fail) ** (2 * (4 - n)), rel=1e-9)
    # unequal pulse counts distort relative amplitudes only at second order
    assert 1 - 1e-3 < rep1.fidelity < rep0.fidelity


def test_rising_exponential_single_bin_recall(params):
    # near-unit storage of a matched rising exponential in one bin
    t_end = 20 * params.tau_R
    write = plan_write(2, 1, t_end)
    read = plan_read(2, 1, 20 * params.tau_R, time_reversed=True, t0=t_end)
    grid = make_grid(params, t_end)
    f_in = rising_exponential(t_end, params, grid)
    rep = end_to_end(f_in, write, read, params)
    assert rep.write_efficiency > 0.9999
    assert rep.read_efficiency > 0.9999
    assert rep.fidelity == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# time-bin qubit
# ---------------------------------------------------------------------------

def test_timebin_qubit_fidelity_random_phases(params):
    rng = np.random.default_rng(5)
    for _ in range(4):
        theta = rng.uniform(0, np.pi / 2)
        phi = rng.uniform(0, 2 * np.pi)
        alpha = math.cos(theta)
        beta = math.sin(theta) * np.exp(1j * phi)
        fid = timebin_qubit_fidelity(alpha, beta, 20 * params.tau_R, params)
        assert fid == pytest.approx(1.0, abs=1e-6)


def test_timebin_qubit_reversal_swaps_bins(params):
    rep = timebin_qubit_report(0.8, 0.6, 20 * params.tau_R, params,
                               time_reversed=True)
    # late bin (amplitude 0.6) emitted first under time reversal
    emitted = rep.emitted
    assert abs(emitted[2]) == pytest.approx(0.6, abs=1e-4)
    assert abs(emitted[1]) == pytest.approx(0.8, abs=1e-4)
    assert rep.total_efficiency == pytest.approx(1.0, abs=1e-6)


def test_timebin_qubit_guards(params):
    with pytest.raises(PlanError):
        timebin_qubit_fidelity(0.9, 0.9, 20 * params.tau_R, params)
    with pytest.raises(PlanError):
        timebin_qubit_fidelity(1.0, 0.0, 2 * params.tau_R, params)
