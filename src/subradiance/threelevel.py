"""Raman-style transfer through a lambda system driven by a single cavity
photon on one leg and a coherent field on the other.

Basis for the closed forms: |0> (ground, photon present), |1> (intermediate,
photon absorbed), |2> (storage level).  The coherent leg's coupling alpha*g_b
is folded into the Rabi rate Omega_R/2 = g_b*|alpha| with the phase of alpha
kept explicitly; this keeps the three-amplitude state normalized while
reproducing the same populations as the unnormalized photon-number
expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "DriveConfig",
    "ThreeLevelState",
    "evolve",
    "transfer_time",
    "pulse_outcome",
    "failure_probability",
]


@dataclass(frozen=True)
class DriveConfig:
    """Couplings of the two legs: ``g_a`` for the single photon and
    ``g_b``, ``alpha`` for the coherent drive."""

    g_a: float
    g_b: float
    alpha: complex

    def __post_init__(self):
        if self.g_a <= 0 or self.g_b <= 0:
            raise DomainError("couplings must be positive")
        if abs(self.alpha) == 0:
            raise DomainError("coherent amplitude must be nonzero")

    @property
    def rabi_rate(self) -> float:
        """Omega_R = 2 g_b |alpha|."""
        return 2.0 * self.g_b * abs(self.alpha)

    @property
    def effective_rate(self) -> float:
        """Omega = sqrt(g_a^2 + (Omega_R / 2)^2)."""
        return math.hypot(self.g_a, self.rabi_rate / 2.0)


@dataclass(frozen=True)
class ThreeLevelState:
    amplitudes: tuple[complex, complex, complex]

    def __post_init__(self):
        if len(self.amplitudes) != 3:
            raise DomainError(f"a three-level state has 3 amplitudes, got "
                              f"{len(self.amplitudes)}")
        n = sum(abs(a) ** 2 for a in self.amplitudes)
        if not abs(n - 1.0) <= 1e-9:
            raise DomainError(f"state norm {n} is not 1")

    @property
    def populations(self) -> tuple[float, float, float]:
        return tuple(abs(a) ** 2 for a in self.amplitudes)


def _hamiltonian(cfg: DriveConfig) -> np.ndarray:
    half = cfg.rabi_rate / 2.0
    phase = cfg.alpha / abs(cfg.alpha)
    return np.array([
        [0.0, cfg.g_a, 0.0],
        [cfg.g_a, 0.0, half * np.conj(phase)],
        [0.0, half * phase, 0.0],
    ], dtype=complex)


def evolve(state: ThreeLevelState, cfg: DriveConfig, t: float) -> ThreeLevelState:
    """Coherent evolution for time ``t`` (no decay in this idealized model)."""
    h = _hamiltonian(cfg)
    vals, vecs = np.linalg.eigh(h)
    v = np.asarray(state.amplitudes, dtype=complex)
    out = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ v))
    return ThreeLevelState(tuple(out))


def transfer_time(cfg: DriveConfig) -> float:
    """Duration t_p = pi / Omega of a full transfer pulse."""
    return math.pi / cfg.effective_rate


def pulse_outcome(state: ThreeLevelState, cfg: DriveConfig) -> ThreeLevelState:
    """State after one transfer pulse of duration pi / Omega."""
    return evolve(state, cfg, transfer_time(cfg))


def failure_probability(c0: complex, cfg: DriveConfig) -> float:
    """Photon-loss probability of a transfer pulse acting on a state with
    ground-with-photon amplitude ``c0``: the photon is absorbed and dumped
    into the coherent leg instead of being re-emitted.

    p = |c0|^2 * (g_a * Omega_R / (g_a^2 + (Omega_R/2)^2))^2, maximal
    (p = |c0|^2) when Omega_R = 2 g_a and falling off as the drive gets
    stronger.
    """
    ga, om_r = cfg.g_a, cfg.rabi_rate
    return abs(c0) ** 2 * (ga * om_r / (ga ** 2 + (om_r / 2.0) ** 2)) ** 2
