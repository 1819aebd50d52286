import collections
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from subradiance import (DomainError, ModeLedger, PlanError, SignPattern, TimeGrid,
                         end_to_end, make_grid, packet_from_samples, packet_norm,
                         plan_passive, plan_read, plan_write, WavePacket,
                         rectangular_packet, rising_exponential, simulate_read,
                         simulate_write, timebin_qubit_fidelity, timebin_qubit_report,
                         verify_plan)
from subradiance import dynamics, schedule, storage


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


def _ledger_replay(params, f_in, write, read, loss, s):
    """Stored amplitudes by bin as of the read's first slot, and emitted
    amplitudes by bin, from ``ModeLedger.apply_mask`` one mask at a time, on
    the amplitudes the write captured without loss."""
    captured = simulate_write(f_in, write, params)[0].amplitudes_by_bin()
    ledger, t = ModeLedger(write.parts), f_in.grid.t0
    for n, e in enumerate(write.events, start=1):
        _decay(ledger, loss, e.time - t)
        ledger.active_amplitude, ledger.active_bin, t = captured[n], n, e.time
        ledger.apply_mask(e.mask, capture_bin=n, success_amplitude=s)
    _decay(ledger, loss, read.times[0] - t)
    stored, emitted = ledger.amplitudes_by_bin(), {}
    for e, t_off in zip(read.events, [*read.times[1:], read.t_end]):
        ledger.apply_mask(e.mask, success_amplitude=s)
        _decay(ledger, loss, t_off - e.time)
        amp, lag = ledger.active_amplitude, (t_off - e.time) / params.tau_R
        emitted[ledger.active_bin] = amp * math.sqrt(1.0 - math.exp(-lag))
        ledger.active_amplitude = amp * math.exp(-lag / 2.0)
    return stored, emitted


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
        ledger, _ = simulate_write(f_in, write, params, loss, s)
        got = ledger.amplitudes_by_bin()
        for time_reversed in (False, True):
            read = plan_read(parts, bins, write.bin_duration,
                             time_reversed=time_reversed, t0=write.t_end)
            stored, emitted = _ledger_replay(params, f_in, write, read, loss, s)
            assert sorted(got) == sorted(stored) == list(range(1, bins + 1))
            assert max(abs(got[n] - stored[n]) for n in stored) < 1e-12
            _, record = simulate_read(ledger, read, params, loss, dt=f_in.grid.dt,
                                      write_plan=write, pulse_success_amplitude=s)
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


def test_end_to_end_replays_each_plan_once(params, monkeypatch):
    # the write verification replays the write plan, and the read's replays
    # the read plan on the write report's stored rows and end product
    calls = []
    replay = schedule._flip_masks

    def counted(plan, start):
        calls.append(plan.stage)
        return replay(plan, start)

    monkeypatch.setattr(schedule, "_flip_masks", counted)
    # a replay through a name storage imported itself counts too
    monkeypatch.setattr(storage, "_flip_masks", counted, raising=False)
    # the run carries the stored amplitudes as a vector: it builds no ledger
    monkeypatch.setattr(storage, "ModeLedger", None)
    f_in, write, read = _rect_setup(params)
    end_to_end(f_in, write, read, params)
    assert calls == ["write", "read_reversed"]


@pytest.mark.parametrize("passive", [False, True])
@pytest.mark.parametrize("time_reversed", [False, True])
def test_public_steps_match_end_to_end_bitwise(params, monkeypatch, passive,
                                               time_reversed):
    # simulate_write then simulate_read run the stages end_to_end runs: with
    # the read at the write grid's end, both hold the store equally long
    records = []
    read_stage = storage._read

    def recorded(*args):
        out = read_stage(*args)
        records.append(out[1])
        return out

    monkeypatch.setattr(storage, "_read", recorded)
    bd = 0.5 * params.tau_R
    rng = np.random.default_rng(5)
    for parts, loss, s in ((8, 0.0, 1.0), (16, 0.3 / params.tau_R, 0.97)):
        bins = parts - 1
        amps = rng.normal(size=bins) + 1j * rng.normal(size=bins)
        f_in, write, read = _piecewise_setup(params, amps / np.linalg.norm(amps), parts,
                                             time_reversed, bin_in_tau_r=0.5)
        if passive:
            write = plan_passive(parts, bins, bd, "write")
            read = plan_passive(parts, bins, bd, "read", time_reversed, write.t_end)
        assert read.times[0] == f_in.grid.t_end
        report = end_to_end(f_in, write, read, params, loss, s)
        ledger, _ = simulate_write(f_in, write, params, loss, s)
        _, record = simulate_read(ledger, read, params, loss, dt=f_in.grid.dt,
                                  write_plan=write, pulse_success_amplitude=s)
        assert ledger.amplitudes_by_bin() == report.captured
        assert list(ledger.amplitudes_by_bin()) == list(report.captured)
        assert record == records[-2]
        assert dict(zip(record.bins, record.emitted)) == report.emitted
        assert record.bins == tuple(report.emitted) and len(record.leftover) == bins


def test_end_to_end_of_1024_parts_peaks_below_25_mb(params):
    # 1023 bins of 2.5 tau_R: the plans' replays are 1023 x 1024 int64, 8.4
    # MB each; a kept Gram matrix, a second write replay or a ledger of
    # parts-wide rows would add as much again
    bd = 2.5 * params.tau_R
    write = plan_write(1024, 1023, bd)
    read = plan_read(1024, 1023, bd, time_reversed=True, t0=write.t_end)
    f_in = rectangular_packet(params, make_grid(params, write.t_end), 1023 * bd)
    tracemalloc.start()
    try:
        rep = end_to_end(f_in, write, read, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.emitted) == 1023
    assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
    assert peak < 25 * 2 ** 20


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


def test_a_packet_with_a_nan_sample_is_refused(params):
    # a NaN photon number fails the one-photon check instead of giving NaN
    # efficiencies
    f_in, write, read = _rect_setup(params)
    samples = f_in.samples.copy()
    samples[100] = np.nan
    f_nan = packet_from_samples(f_in.grid, samples, f_in.breakpoints)
    with pytest.raises(DomainError, match="packet norm nan is not finite"):
        end_to_end(f_nan, write, read, params)


def test_write_rejects_two_events_on_one_node(params):
    f_in, _, _ = _rect_setup(params)
    dt = f_in.grid.dt
    # three pulses 1e-8 dt apart all round to node 5: two bins would be empty
    crowded = plan_write(4, 3, 1e-8 * dt, t0=5 * dt)
    assert verify_plan(crowded).ok
    with pytest.raises(PlanError, match="one grid node"):
        simulate_write(f_in, crowded, params)


@pytest.mark.parametrize("passive", [False, True])
def test_write_refuses_a_plan_of_a_read_stage(params, passive):
    f_in, _, _ = _rect_setup(params)
    bd = 2.5 * params.tau_R
    read = (plan_passive(4, 3, bd, "read", t0=bd) if passive
            else plan_read(4, 3, bd, t0=bd))
    # the read verifies on its own, so only its stage can refuse it
    assert verify_plan(read).ok
    with pytest.raises(PlanError, match=f"write plan has stage '{read.stage}', want "
                                        "'write' or 'passive_write'"):
        simulate_write(f_in, read, params)


@pytest.mark.parametrize("passive", [False, True])
def test_read_refuses_a_plan_of_a_write_stage(params, passive):
    f_in, write, _ = _rect_setup(params)
    bd = write.bin_duration
    if passive:
        write = plan_passive(4, 3, bd, "write")
        bad = plan_passive(4, 3, bd, "write", t0=write.t_end)
    else:
        bad = plan_write(4, 3, bd, t0=write.t_end)
    # the plan verifies as a write, so only its stage can refuse it
    assert verify_plan(bad).ok
    named = (f"read plan has stage '{bad.stage}', want 'read', 'read_reversed' "
             "or a passive form of them")
    ledger, _ = simulate_write(f_in, write, params)
    with pytest.raises(PlanError, match=named):
        simulate_read(ledger, bad, params, write_plan=write)
    with pytest.raises(PlanError, match=named):
        end_to_end(f_in, write, bad, params)


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

def test_end_to_end_charges_loss_from_each_bin_end_to_its_slot(params):
    # the write charges loss to its grid's end T and the read from its first
    # slot t_1: an input grid that runs 10 tau_R past T, or a read that
    # starts 100 tau_R after it, changes each bin's loss by its hold alone
    loss = 0.1 / params.tau_R
    f_in, write, read = _rect_setup(params)
    bd = write.bin_duration
    longer = rectangular_packet(params, make_grid(params, write.t_end + 10 * params.tau_R),
                                3 * bd)
    later = plan_read(4, 3, bd, time_reversed=True, t0=write.t_end + 100 * params.tau_R)
    totals = []
    for f, r in ((f_in, read), (longer, read), (f_in, later)):
        clean = end_to_end(f, write, r, params)
        lossy = end_to_end(f, write, r, params, loss)
        slots = dict(zip(verify_plan(r, write).emission_order, r.times[-r.bins:]))
        for n, t_slot in slots.items():
            hold = t_slot - write.times[n - 1]
            assert lossy.emitted[n] == pytest.approx(
                clean.emitted[n] * math.exp(-loss * hold / 2), rel=1e-12)
        totals.append(lossy.total_efficiency)
    assert totals[0] == pytest.approx(0.38322, abs=1e-5)
    assert totals[1] == pytest.approx(totals[0], rel=1e-12)
    assert totals[2] == pytest.approx(totals[0] * math.exp(-10), rel=1e-12)
    # 300 tau_R past T at 5 / tau_R: e^-750 of loss to T, none of it charged
    far = rectangular_packet(params, make_grid(params, write.t_end + 300 * params.tau_R),
                             3 * bd)
    near = end_to_end(f_in, write, read, params, 50 * loss)
    assert end_to_end(far, write, read, params, 50 * loss).total_efficiency == pytest.approx(
        near.total_efficiency, rel=1e-12)
    # a read before the last write pulse would be held for negative times
    with pytest.raises(PlanError, match="before the last write pulse"):
        end_to_end(f_in, write, plan_read(4, 3, bd, time_reversed=True), params, loss)


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


# ---------------------------------------------------------------------------
# the exact write of piecewise-exponential packets
# ---------------------------------------------------------------------------

def _rk4_twin(f_in):
    """The same packet behind a plain callable, which the write integrates
    with RK4 on its cell values."""
    return dataclasses.replace(f_in, shape=lambda t: f_in.shape(t))


def _assert_paths_agree(f_in, write, params, tol=1e-10):
    assert isinstance(f_in.shape, dynamics._Pieces)
    # stored amplitudes, transmitted packet, input norm, input bin amplitudes
    exact = storage._write(f_in, write, params, 0.0, 1.0)[1:]
    rk4 = storage._write(_rk4_twin(f_in), write, params, 0.0, 1.0)[1:]
    got, want = exact[0], rk4[0]
    assert len(got) == len(want) == write.bins
    assert np.max(np.abs(got - want)) < tol
    assert abs(exact[2] - rk4[2]) < tol
    assert max(abs(exact[3][n] - rk4[3][n]) for n in exact[3]) < tol
    scale = np.max(np.abs(f_in.samples))
    assert np.max(np.abs(exact[1].samples - rk4[1].samples)) < tol * scale
    # c = 0 on each bin-start node, on both paths
    edges = storage._bin_edges(f_in.grid, write)
    for transmitted in (exact[1], rk4[1]):
        starts = [k for k in edges if k < f_in.grid.n_samples - 1]
        assert np.array_equal(transmitted.samples[starts], f_in.samples[starts])
    return exact


def test_exact_write_of_rectangular_fronts_mid_bin(params):
    bd = 2.5 * params.tau_R
    write = plan_write(8, 5, bd)
    grid = make_grid(params, write.t_end)
    for start, length in ((grid.n_samples // 7, 3.3), (0, 4.1), (613, 0.9)):
        f_in = rectangular_packet(params, grid, length * bd, grid.times[start])
        _assert_paths_agree(f_in, write, params)
    # 63 bins with a front inside each, at a random node, and a complex level
    # from each front on: the cuts and the piece starts interleave 63 times
    write = plan_write(64, 63, bd)
    grid = make_grid(params, write.t_end)
    steps = round(bd / grid.dt)
    rng = np.random.default_rng(63)
    starts = grid.times[steps * np.arange(63) + rng.integers(1, steps, size=63)]
    levels = rng.normal(size=63) + 1j * rng.normal(size=63)
    # no piece is longer than two bins: under one photon
    levels *= math.sqrt(params.tau_E / (2 * bd)) / np.linalg.norm(levels)
    shape = dynamics._exp_pieces(starts, levels, [math.inf] * 63, starts)
    f_in = dynamics._shape_packet(grid, shape, tuple(starts.tolist()))
    _assert_paths_agree(f_in, write, params)


def test_exact_write_of_rising_exponentials_and_qubits(params):
    t_end = 20 * params.tau_R
    f_in = rising_exponential(t_end, params, make_grid(params, t_end))
    _assert_paths_agree(f_in, plan_write(2, 1, t_end), params)
    for alpha, beta in ((0.6, 0.8j), (1.0, 0.0), (0.0, -1.0)):
        f_in, write, _ = storage._timebin_setup(alpha, beta, 20 * params.tau_R,
                                                params, True)
        _assert_paths_agree(f_in, write, params)


def test_exact_write_of_a_resonant_recall(params):
    # a recall decays as e^{-t/2tau_R}: fed back in, each slot is a piece
    # with tau = -2 tau_R, where the mode's own decay is resonant
    f_in, write, read = _rect_setup(params)
    output = end_to_end(f_in, write, read, params).output
    assert -2 * params.tau_R in output.shape.taus
    again = plan_write(4, 3, write.bin_duration, t0=output.grid.t0)
    _assert_paths_agree(output, again, params)


@pytest.mark.parametrize("x", [1e-9, -1e-9, 0.3, -0.3])
def test_exact_write_near_resonance(params, x):
    # tau = -2 tau_R / (1 - x): 2 tau_R (1/tau + 1/2tau_R) = x, on either
    # side of the resonance, close to it and farther off
    bd = 2.5 * params.tau_R
    write = plan_write(4, 3, bd)
    grid = make_grid(params, write.t_end)
    start = grid.times[97]
    shape = dynamics._exp_pieces([start], [0.5 * math.sqrt(params.tau_E / params.tau_R)],
                                 [-2 * params.tau_R / (1 - x)], [start])
    f_in = WavePacket(grid, dynamics._node_samples(shape, grid, (start,)), shape=shape,
                      breakpoints=(start,))
    _assert_paths_agree(f_in, write, params)


def test_exact_write_of_a_very_long_rising_piece(params):
    # 2500 tau_R of rise: every exponential the write takes stays finite
    t_end = 2500 * params.tau_R
    grid = make_grid(params, t_end, dt=params.tau_R / 20)
    f_in = rising_exponential(t_end, params, grid)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        _, stored, transmitted, in_norm, _ = storage._write(
            f_in, plan_write(2, 1, t_end), params, 0.0, 1.0)
        # sampled on this read, still under the raising error state
        assert np.all(np.isfinite(transmitted.samples))
    assert abs(stored[0] + 1.0) < 1e-12
    assert abs(in_norm - 1.0) < 1e-12


@pytest.mark.parametrize("seed", [6, 14, 16])
def test_both_writes_score_a_complex_piecewise_input_alike(params, seed):
    # complex exponential pieces that start inside the bins: the RK4 write
    # takes each bin's phase from int F over its cells, as the exact write
    # does, so the two agree on fidelity as on every other score
    rng = np.random.default_rng(seed)
    bd = round(rng.uniform(0.3, 4.0) * 200) / 200 * params.tau_R
    write = plan_write(4, 3, bd)
    grid = make_grid(params, write.t_end)
    nodes = np.sort(rng.choice(np.arange(1, grid.n_samples - 1), size=4, replace=False))
    starts = np.concatenate([[grid.t0], grid.times[nodes]])
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    taus = rng.choice([-1, 1], 5) * rng.uniform(0.5, 5, 5) * params.tau_R
    bps = tuple(starts.tolist())

    def packet(scale):
        shape = dynamics._exp_pieces(starts, amps * scale, taus, starts)
        return WavePacket(grid, dynamics._node_samples(shape, grid, bps), shape=shape,
                          breakpoints=bps)

    f_in = packet(math.sqrt(0.8 / packet_norm(packet(1.0), params)))
    read = plan_read(4, 3, bd, time_reversed=bool(seed % 2), t0=write.t_end + 3 * seed * grid.dt)
    exact, rk4 = (end_to_end(f, write, read, params, loss_rate=0.02 / params.tau_R,
                             pulse_success_amplitude=0.999)
                  for f in (f_in, _rk4_twin(f_in)))
    for name in ("fidelity", "total_efficiency", "write_efficiency", "input_norm",
                 "bin_probability_error"):
        assert getattr(exact, name) == pytest.approx(getattr(rk4, name), abs=1e-9), name


def test_empty_bin_stores_exactly_zero_on_both_paths(params):
    bd = 2.5 * params.tau_R
    write = plan_write(4, 3, bd)
    read = plan_read(4, 3, bd, time_reversed=True, t0=write.t_end)
    grid = make_grid(params, write.t_end)
    level = math.sqrt(params.tau_E / bd / 2)
    edges = [0.0, bd, 2 * bd, 3 * bd]
    shape = dynamics._exp_pieces(edges, [level, 0.0, -1j * level, 0.0], [math.inf] * 4,
                                 edges)
    f_in = WavePacket(grid, dynamics._node_samples(shape, grid, tuple(edges)),
                      shape=shape, breakpoints=tuple(edges))
    for f in (f_in, _rk4_twin(f_in)):
        rep = end_to_end(f, write, read, params)
        assert rep.captured[2] == 0.0
        assert sorted(rep.emitted) == [1, 3]
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)


def test_analytic_write_runs_no_rk4_scan(params, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the RK4 scan ran")

    monkeypatch.setattr(dynamics, "_rk4_recurrence", refuse)
    f_in, write, read = _rect_setup(params)
    assert end_to_end(f_in, write, read, params).fidelity == pytest.approx(1.0, abs=1e-12)
    assert timebin_qubit_fidelity(0.6, 0.8j, 20 * params.tau_R, params) == pytest.approx(
        1.0, abs=1e-12)


def _counted_scans(monkeypatch):
    """Record the step count and the restarts of every RK4 scan; returns
    the record and the scan itself."""
    calls = []
    scan = dynamics._rk4_recurrence

    def counted(big_a, big_b, c0, restarts=()):
        calls.append((len(big_b), list(restarts)))
        return scan(big_a, big_b, c0, restarts)

    monkeypatch.setattr(dynamics, "_rk4_recurrence", counted)
    return calls, scan


def test_sampled_write_runs_one_rk4_scan(params, monkeypatch):
    calls, _ = _counted_scans(monkeypatch)
    f_in, write, read = _piecewise_setup(params, [0.6, 0.48j, -0.64], 4, True)
    for f in (f_in, packet_from_samples(f_in.grid, f_in.samples, f_in.breakpoints)):
        calls.clear()
        rep = end_to_end(f, write, read, params)
        # the store and its scores run no scan
        assert calls == []
        # reading the transmitted packet, twice, runs one scan over three
        # bins and the tail, 500 steps each, that restarts at every bin end
        for _ in range(2):
            rep.transmitted.samples
            assert calls == [(2000, [500, 1000, 1500])]


def test_timebin_qubit_builds_each_grid_once(params, monkeypatch):
    # a qubit report builds no grid's times, runs no _segment_nodes and
    # evaluates no piece shape on a grid: it is O(pieces + bins)
    built = collections.Counter()
    build = TimeGrid.times.func

    def counted_times(grid):
        built[grid] += 1
        return build(grid)

    times = functools.cached_property(counted_times)
    times.__set_name__(TimeGrid, "times")
    monkeypatch.setattr(TimeGrid, "times", times)
    calls = collections.Counter()
    segment_nodes, pieces = dynamics._segment_nodes, dynamics._Pieces.__call__

    def counted_nodes(*args):
        calls["_segment_nodes"] += 1
        return segment_nodes(*args)

    def counted_pieces(self, t):
        calls["shape"] += 1
        return pieces(self, t)

    monkeypatch.setattr(dynamics, "_segment_nodes", counted_nodes)
    monkeypatch.setattr(dynamics._Pieces, "__call__", counted_pieces)
    rep = timebin_qubit_report(0.6, 0.8j, 20 * params.tau_R, params)
    assert not built and not calls
    # read, and read again: the write grid's and the read grid's times are
    # built once each; the input (two shape calls: the nodes, then the
    # breakpoint nodes), transmitted and output are sampled once
    for _ in range(2):
        rep.transmitted.samples, rep.output.samples
        assert built == {rep.transmitted.grid: 1, rep.output.grid: 1}
        assert calls == {"_segment_nodes": 1, "shape": 3}
    assert not rep.transmitted.grid.times.flags.writeable


def test_printing_a_report_samples_no_packet(params, monkeypatch):
    calls = collections.Counter()
    segment_nodes, pieces = dynamics._segment_nodes, dynamics._Pieces.__call__

    def counted_nodes(*args):
        calls["_segment_nodes"] += 1
        return segment_nodes(*args)

    def counted_pieces(self, t):
        calls["shape"] += 1
        return pieces(self, t)

    monkeypatch.setattr(dynamics, "_segment_nodes", counted_nodes)
    monkeypatch.setattr(dynamics._Pieces, "__call__", counted_pieces)
    rep = timebin_qubit_report(0.6, 0.8j, 2500 * params.tau_R, params)
    text = repr(rep)
    assert not calls
    assert "samples=array" not in text and "n_samples=1000001" in text
    assert "samples" not in rep.output.__dict__


def test_long_timebin_qubit_allocates_no_grid(params):
    # 2500 tau_R bins: a 1M-node write grid, on which one complex array is
    # 16 MB; sampling the input, the transmitted packet or the output would
    # take that much
    tracemalloc.start()
    try:
        rep = timebin_qubit_report(0.6, 0.8j, 2500 * params.tau_R, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.transmitted.grid.n_samples == rep.output.grid.n_samples == 1_000_001
    assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
    assert peak < 2 ** 20


def _read_twice(packet):
    """A lazy packet's samples: its sampler, run twice, gives the same bytes,
    and the samples, read twice, are one array equal to them."""
    sampler = packet.__dict__["_sampler"]
    first = sampler()
    assert sampler().tobytes() == first.tobytes()
    samples = packet.samples
    assert packet.samples is samples
    assert samples.tobytes() == first.tobytes()
    return samples


def _eager_transmitted(f_in, write, params):
    """The transmitted packet's node values built at once, from
    ``_segment_nodes`` or the RK4 scan, as the write built them eagerly."""
    grid = f_in.grid
    ends = write.times[len(write.times) - write.bins:]
    edges = storage._bin_edges(grid, write)
    if isinstance(f_in.shape, dynamics._Pieces):
        seg = dynamics._segments(f_in.shape, params, grid, [grid.t0, *ends])
        c = dynamics._segment_nodes(seg, params, f_in)
    else:
        big_a, big_b = dynamics._forcing(f_in, params)
        c = dynamics._rk4_recurrence(big_a, big_b, 0.0, edges)
        c[[k for k in edges if k < grid.n_samples - 1]] = 0.0
    c *= math.sqrt(params.tau_E / params.tau_R)
    c += f_in.samples
    return c


def _lazy_cases(params):
    f_in, write, read = storage._timebin_setup(0.6, 0.8j, 20 * params.tau_R, params, True)
    yield f_in, write, read, 0.0, 0.99
    f_in, write, read = _rect_setup(params)
    yield f_in, write, read, 0.01 / params.tau_R, 1.0
    yield packet_from_samples(f_in.grid, f_in.samples, f_in.breakpoints), write, read, 0.0, 1.0


def test_lazy_packets_equal_their_eager_samples(params):
    for f_in, write, read, loss, s in _lazy_cases(params):
        if isinstance(f_in.shape, dynamics._Pieces):
            want = dynamics._node_samples(f_in.shape, f_in.grid, f_in.breakpoints)
            assert _read_twice(f_in).tobytes() == want.tobytes()
        rep = end_to_end(f_in, write, read, params, loss, s)
        want = _eager_transmitted(f_in, write, params)
        assert _read_twice(rep.transmitted).tobytes() == want.tobytes()
        grid = rep.output.grid
        want = rep.output.shape(grid.t0 + grid.dt * np.arange(grid.n_samples))
        assert _read_twice(rep.output).tobytes() == want.tobytes()
        assert grid.times.tobytes() == (grid.t0 + grid.dt * np.arange(grid.n_samples)).tobytes()


def _sampled_input(params, write, grid):
    """A packet given only as samples, a slow chirp up to the last write pulse."""
    on = grid.times < write.times[-1]
    samples = (0.05 * math.sqrt(params.tau_E / params.tau_R)
               * np.exp(1j * grid.times / params.tau_R) * on)
    return packet_from_samples(grid, samples, write.times)


def _assert_bins_restart(params, monkeypatch, write, grid):
    """A sampled write over ``write`` on ``grid``: it runs no scan until its
    transmitted packet is read, then one that restarts at the bin edges, and
    its amplitudes are those of each span integrated alone from zero;
    returns the scan's block count and length."""
    calls, scan = _counted_scans(monkeypatch)
    f_in = _sampled_input(params, write, grid)
    ledger, transmitted = simulate_write(f_in, write, params)
    assert calls == []
    transmitted.samples
    big_a, big_b = dynamics._forcing(f_in, params)
    edges = storage._bin_edges(grid, write)
    assert calls == [(grid.n_samples - 1, edges)]
    # the reference: each span integrated alone from zero
    c = np.empty(grid.n_samples, dtype=complex)
    captured = []
    bounds = [0, *edges, grid.n_samples - 1]
    for a, b in zip(bounds[:-1], bounds[1:]):
        c[a:b + 1] = scan(big_a, big_b[a:b], 0.0)
        captured.append(c[b])
    want = f_in.samples + math.sqrt(params.tau_E / params.tau_R) * c
    assert np.max(np.abs(transmitted.samples - want)) < 1e-12 * np.max(np.abs(f_in.samples))
    got = ledger.amplitudes_by_bin()
    assert max(abs(got[n] - captured[n - 1]) for n in got) < 1e-15
    spans = np.diff(bounds)
    block = dynamics._scan_block(big_a, int(spans.max()))
    return int(np.sum(-(-spans // block))), block


@pytest.mark.parametrize("lead, tail, blocks", [(0, 40, 5 + 21), (30, 0, 16 + 4 + 1)])
def test_sampled_write_splits_long_spans(params, monkeypatch, lead, tail, blocks):
    # a span longer than one scan block (400 steps here) takes several
    # blocks, and each carries in the amplitude the one before it left
    write = plan_write(8, 5, params.tau_R, t0=lead * params.tau_R)
    grid = make_grid(params, write.t_end + tail * params.tau_R)
    assert _assert_bins_restart(params, monkeypatch, write, grid) == (blocks, 400)


def test_sampled_write_with_uneven_bins_bounds_its_forcing(params, monkeypatch):
    # a hand-made plan: one bin of 100 tau_R (20,000 steps) among 62 of a
    # tenth of tau_R; a scan padding every bin to the longest would hold
    # 63 x 20,000 complex values, 20 MB
    bd = params.tau_R / 10
    write = plan_write(64, 63, bd)
    times = np.cumsum([bd] * 30 + [1000 * bd] + [bd] * 32)
    write = dataclasses.replace(write, times=tuple(times.tolist()))
    assert verify_plan(write).ok
    grid = make_grid(params, times[-1] + bd)
    # 62 short bins, 50 blocks for the long one, 1 for the tail
    assert _assert_bins_restart(params, monkeypatch, write, grid) == (62 + 50 + 1, 400)
    f_in = _sampled_input(params, write, grid)
    tracemalloc.start()
    try:
        simulate_write(f_in, write, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the write holds a few grid-length arrays (2.4 MB here), not 20 MB
    assert peak < 16 * 16 * grid.n_samples


def test_sampled_write_of_61_bins_peaks_below_four_and_a_half_grid_arrays(params):
    # 61 bins of 205 steps over 64 parts: the write holds its midpoints and
    # two grid-length buffers on top of the shape's own temporaries; a write
    # that copied the node samples and built |v|^2 arrays, a photon density
    # and an eager forcing would peak at 5.7 grid arrays
    rng = np.random.default_rng(61)
    amps = rng.normal(size=61) + 1j * rng.normal(size=61)
    f_in, write, read = _piecewise_setup(params, amps / np.linalg.norm(amps), 64, True,
                                         bin_in_tau_r=205 / 200)
    n = f_in.grid.n_samples
    tracemalloc.start()
    try:
        rep = end_to_end(f_in, write, read, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
    assert peak < 4.5 * 16 * n


# ---------------------------------------------------------------------------
# seeded store differential: the write, the verifier and the read against
# each other and against the mask-by-mask ledger
# ---------------------------------------------------------------------------

_SCALARS = ("write_efficiency", "read_efficiency", "total_efficiency", "fidelity",
            "bin_probability_error", "input_norm")


def _assert_reports_agree(got, want, tol=1e-9, scale=1.0):
    """Every scalar of two reports agrees within ``tol``; ``scale`` (the
    loss of a longer hold) multiplies the captured and emitted amplitudes
    and the write and total efficiencies of ``want``."""
    for name in _SCALARS:
        a, b = getattr(got, name), getattr(want, name)
        if name in ("write_efficiency", "total_efficiency"):
            b *= scale ** 2
        assert a == pytest.approx(b, abs=tol), name
    for name in ("captured", "emitted"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.keys() == b.keys(), name
        assert max(abs(a[n] - b[n] * scale) for n in a) < tol, name


def _seeded_store(params, rng):
    """A complex exponential piece in each bin of a random plan, on a grid
    with a tail past the last write pulse, 0.9 photons in all."""
    parts = int(rng.choice([4, 8, 16]))
    bins = int(rng.integers(2, parts))
    dt = params.tau_R / 200
    bd = int(rng.integers(100, 400)) * dt
    write = plan_write(parts, bins, bd)
    grid = make_grid(params, write.t_end + int(rng.integers(0, 200)) * dt, dt=dt)
    edges = np.arange(bins + 1) * bd
    taus = rng.choice([-1.0, 1.0, np.inf], bins) * rng.uniform(1, 5, bins) * params.tau_R
    # a rising piece is referred to its end, any other to its start
    refs = np.where(taus > 0, edges[1:], edges[:-1])
    amps = rng.normal(size=bins) + 1j * rng.normal(size=bins)
    bps = tuple(edges.tolist())

    def packet(level):
        shape = dynamics._exp_pieces(edges, np.append(amps * level, 0.0),
                                     np.append(taus, np.inf), np.append(refs, 0.0))
        return WavePacket(grid, dynamics._node_samples(shape, grid, bps), shape=shape,
                          breakpoints=bps)

    return packet(math.sqrt(0.9 / packet_norm(packet(1.0), params))), write


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_seeded_store_differential(params, seed):
    rng = np.random.default_rng(seed)
    f_in, write = _seeded_store(params, rng)
    parts, bins, bd = write.parts, write.bins, write.bin_duration
    loss, s = rng.uniform(0.005, 0.05) / params.tau_R, rng.uniform(0.97, 1.0)
    reversed_ = bool(rng.integers(2))
    t_read = f_in.grid.t_end
    read = plan_read(parts, bins, bd, reversed_, t0=t_read)
    rk4_in = _rk4_twin(f_in)
    exact = end_to_end(f_in, write, read, params, loss, s)
    rk4 = end_to_end(rk4_in, write, read, params, loss, s)
    # the exact write against the RK4 write of the same shape
    _assert_reports_agree(rk4, exact)
    # passive plans store and recall as the active ones do
    passive = end_to_end(f_in, plan_passive(parts, bins, bd, "write"),
                         plan_passive(parts, bins, bd, "read", reversed_, t0=t_read),
                         params, loss, s)
    _assert_reports_agree(passive, exact)
    # every slot is as long, so without loss or pulse failure the read order
    # changes no score
    forward, backward = (end_to_end(f_in, write, plan_read(parts, bins, bd, r, t0=t_read),
                                    params) for r in (False, True))
    _assert_reports_agree(backward, forward)
    # the mask-by-mask ledger stores and emits what the closed forms do
    stored, emitted = _ledger_replay(params, f_in, write, read, loss, s)
    assert exact.captured.keys() == stored.keys() == set(range(1, bins + 1))
    assert max(abs(exact.captured[n] - stored[n]) for n in stored) < 1e-12
    assert exact.emitted.keys() == emitted.keys()
    assert max(abs(exact.emitted[n] - emitted[n]) for n in emitted) < 1e-12
    # a read that starts after the input grid's end holds every bin longer
    delay = int(rng.integers(1, 2000)) * f_in.grid.dt
    later = plan_read(parts, bins, bd, reversed_, t0=t_read + delay)
    for f, report in ((f_in, exact), (rk4_in, rk4)):
        _assert_reports_agree(end_to_end(f, write, later, params, loss, s), report,
                              scale=math.exp(-loss * delay / 2))
    # the transmitted packet of the RK4 write, read after the fact and read
    # again, is the restarting RK4 scan of its forcing, to the bit
    want = _eager_transmitted(rk4_in, write, params)
    for _ in range(2):
        assert rk4.transmitted.samples.tobytes() == want.tobytes()
