import math

import numpy as np
import pytest

from subradiance import (DomainError, DriveConfig, ThreeLevelState, evolve,
                         failure_probability, pulse_outcome, transfer_time)


def test_rates():
    cfg = DriveConfig(g_a=2.0, g_b=3.0, alpha=4.0 * np.exp(1j * 0.3))
    assert cfg.rabi_rate == pytest.approx(24.0)
    assert cfg.effective_rate == pytest.approx(math.hypot(2.0, 12.0))
    assert transfer_time(cfg) == pytest.approx(math.pi / math.hypot(2.0, 12.0))


def test_unitarity_random():
    rng = np.random.default_rng(17)
    for _ in range(10):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        state = ThreeLevelState(tuple(v))
        cfg = DriveConfig(g_a=rng.uniform(0.5, 3), g_b=rng.uniform(0.5, 3),
                          alpha=rng.uniform(0.5, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        t = rng.uniform(0, 10)
        out = evolve(state, cfg, t)
        assert sum(out.populations) == pytest.approx(1.0, abs=1e-12)


def test_closed_form_from_ground():
    # starting in the ground state with the photon present:
    # c0(t) = ((W/2)^2 + ga^2 cos Ot) / O^2, c2(t) = ga (W/2)(cos Ot - 1)/O^2
    ga, gb, al = 1.3, 0.9, 6.0
    cfg = DriveConfig(ga, gb, al)
    half = cfg.rabi_rate / 2
    om = cfg.effective_rate
    for t in (0.1, 0.5, 2.0):
        out = evolve(ThreeLevelState((1.0, 0.0, 0.0)), cfg, t)
        want0 = (half**2 + ga**2 * math.cos(om * t)) / om**2
        want1 = -1j * ga * math.sin(om * t) / om
        want2 = ga * half * (math.cos(om * t) - 1) / om**2
        assert out.amplitudes[0] == pytest.approx(want0, abs=1e-12)
        assert out.amplitudes[1] == pytest.approx(want1, abs=1e-12)
        assert out.amplitudes[2] == pytest.approx(want2, abs=1e-12)


def test_failure_probability_matches_evolution():
    for ga, omr_over_ga in ((1.0, 2.0), (1.0, 10.0), (1.0, 20.0), (2.5, 7.0)):
        omr = omr_over_ga * ga
        cfg = DriveConfig(ga, 1.0, omr / 2.0)
        out = pulse_outcome(ThreeLevelState((1.0, 0.0, 0.0)), cfg)
        # the leak channel is the storage level picking up the excitation
        assert abs(out.amplitudes[2]) ** 2 == pytest.approx(
            failure_probability(1.0, cfg), abs=1e-12)


def test_failure_probability_worst_and_strong_drive():
    ga = 1.0
    worst = DriveConfig(ga, 1.0, 1.0)  # Omega_R = 2 g_a
    assert failure_probability(1.0, worst) == pytest.approx(1.0, abs=1e-12)
    strong = DriveConfig(ga, 1.0, 10.0)  # Omega_R = 20 g_a
    assert failure_probability(1.0, strong) == pytest.approx(
        (20.0 / 101.0) ** 2, abs=1e-12)
    assert failure_probability(1.0, strong) < 0.04
    # scales with the ground-with-photon population
    assert failure_probability(0.5, strong) == pytest.approx(
        0.25 * failure_probability(1.0, strong), rel=1e-12)


def test_pulse_returns_phase_flip_when_drive_dominates():
    # strong coherent drive: a transfer pulse acts on |0> as ~identity with
    # a pi phase on the intermediate channel and tiny leakage
    cfg = DriveConfig(1.0, 1.0, 500.0)
    out = pulse_outcome(ThreeLevelState((1.0, 0.0, 0.0)), cfg)
    assert out.populations[0] == pytest.approx(1.0, abs=1e-4)


def test_drive_phase_carried_to_storage_level():
    phase = np.exp(1j * 0.7)
    cfg = DriveConfig(1.0, 1.0, 3.0 * phase)
    out = pulse_outcome(ThreeLevelState((1.0, 0.0, 0.0)), cfg)
    ref = pulse_outcome(ThreeLevelState((1.0, 0.0, 0.0)),
                        DriveConfig(1.0, 1.0, 3.0))
    assert out.amplitudes[2] == pytest.approx(ref.amplitudes[2] * phase,
                                              abs=1e-12)
    assert abs(out.amplitudes[1] - ref.amplitudes[1]) < 1e-12


def test_guards():
    with pytest.raises(DomainError):
        DriveConfig(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        DriveConfig(1.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        ThreeLevelState((1.0, 1.0, 0.0))


@pytest.mark.parametrize("amplitudes", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0),
                                        (math.nan, 0.0, 0.0)])
def test_state_needs_three_normalised_amplitudes(amplitudes):
    with pytest.raises(DomainError):
        ThreeLevelState(amplitudes)
