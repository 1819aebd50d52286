"""Physical parameters of an extended two-level ensemble.

The geometry is a pencil-shaped excitation volume (cross section S, length
L_z) holding N identical two-level atoms.  All derived quantities follow
from four exact relations:

    mu      = 3 * lambda^2 / (8 * pi * S)      (geometrical factor)
    tau_E   = L_z / c                           (field transit time)
    tau_R   = T1 / (N * mu)                     (superradiant lifetime)
    tau_c   = sqrt(tau_R * tau_E)               (cooperative time)

together with the Fresnel number F = S / (L_z * lambda).  SI units
throughout; no unit-conversion layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError

C_LIGHT = 299_792_458.0  # m/s

__all__ = [
    "C_LIGHT",
    "EnsembleInput",
    "EnsembleParams",
    "derive_params",
    "validate_regime",
    "density_for_tau_r",
]


@dataclass(frozen=True)
class EnsembleInput:
    """Raw ensemble description.

    The cross section may be given directly (``cross_section``, m^2) or as a
    focal-spot diameter (``beam_diameter``, m; S = pi d^2 / 4).  The atom
    number may be given directly (``atom_count``) or via ``number_density``
    (m^-3, N = density * S * L_z); if both are given they must agree to 0.1%.
    """

    wavelength: float
    sample_length: float
    excited_lifetime: float
    cross_section: float | None = None
    beam_diameter: float | None = None
    atom_count: float | None = None
    number_density: float | None = None
    inhomogeneous_linewidth: float | None = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if (v is not None or f.default is not None) and not 0 < v < math.inf:
                raise DomainError(f"{f.name} must be finite and strictly positive, "
                                  f"got {v}")
        if self.cross_section is None and self.beam_diameter is None:
            raise DomainError("one of cross_section or beam_diameter is required")
        if self.cross_section is not None and self.beam_diameter is not None:
            raise DomainError("give cross_section or beam_diameter, not both")
        if self.atom_count is not None:
            if not self.atom_count >= 1:
                raise DomainError("atom_count must be >= 1")
            if self.number_density is not None:
                n_from_density = self.number_density * self.area * self.sample_length
                if abs(n_from_density - self.atom_count) > 1e-3 * self.atom_count:
                    raise DomainError(
                        "atom_count and number_density disagree by more than 0.1%: "
                        f"{self.atom_count} vs {n_from_density}"
                    )

    @property
    def area(self) -> float:
        """Cross section S in m^2, whichever way it was specified."""
        if self.cross_section is not None:
            return self.cross_section
        return math.pi * self.beam_diameter**2 / 4.0

    @property
    def n_atoms(self) -> float:
        if self.atom_count is not None:
            return self.atom_count
        if self.number_density is None:
            raise DomainError("one of atom_count or number_density is required")
        return self.number_density * self.area * self.sample_length


@dataclass(frozen=True)
class EnsembleParams:
    """Validated input plus the derived collective-emission timescales."""

    wavelength: float
    sample_length: float
    cross_section: float
    excited_lifetime: float
    atom_count: float
    mu: float
    tau_E: float
    tau_c: float
    tau_R: float
    fresnel: float
    number_density: float | None = None
    inhomogeneous_linewidth: float | None = None
    t2_star: float | None = None


def _mu(wavelength: float, area: float) -> float:
    """The geometrical factor mu = 3 lambda^2 / (8 pi S)."""
    return 3.0 * wavelength**2 / (8.0 * math.pi * area)


def derive_params(inp: EnsembleInput) -> EnsembleParams:
    """Compute the derived ensemble parameters from raw inputs."""
    s = inp.area
    n = inp.n_atoms
    mu = _mu(inp.wavelength, s)
    tau_e = inp.sample_length / C_LIGHT
    tau_r = inp.excited_lifetime / (n * mu)
    tau_c = math.sqrt(tau_r * tau_e)
    fresnel = s / (inp.sample_length * inp.wavelength)
    t2_star = None
    if inp.inhomogeneous_linewidth is not None:
        # T2* = 1 / (pi * Gamma_inh); gives 3 us at 100 kHz.
        t2_star = 1.0 / (math.pi * inp.inhomogeneous_linewidth)
    density = inp.number_density
    if density is None:
        density = n / (s * inp.sample_length)
    return EnsembleParams(
        wavelength=inp.wavelength,
        sample_length=inp.sample_length,
        cross_section=s,
        excited_lifetime=inp.excited_lifetime,
        atom_count=n,
        number_density=density,
        inhomogeneous_linewidth=inp.inhomogeneous_linewidth,
        mu=mu,
        tau_E=tau_e,
        tau_c=tau_c,
        tau_R=tau_r,
        fresnel=fresnel,
        t2_star=t2_star,
    )


# Factor below which a "much greater than" ordering counts as violated.
_ORDERING_FACTOR = 10.0
# Superradiant emission must be spectrally narrower than a prepared pit;
# threshold tau_R > 0.2 / pit_width gives 20 ns at a 10 MHz pit.
_PIT_FACTOR = 0.2


def validate_regime(
    p: EnsembleParams,
    packet_duration: float,
    pulse_duration: float = 0.0,
    pit_width: float | None = None,
) -> list[str]:
    """Check the validity orderings of the one-mode model.

    Returns a list of human-readable warnings; never raises.  Regime
    violations must not abort a simulation (exploratory use is allowed).
    """
    warnings: list[str] = []
    if p.tau_c / p.tau_E < _ORDERING_FACTOR:
        warnings.append(
            f"tau_c/tau_E = {p.tau_c / p.tau_E:.3g} < {_ORDERING_FACTOR:g}: "
            "cooperative time is not well separated from the transit time "
            "(Born-Markov ordering violated)"
        )
    if p.tau_R / p.tau_c < _ORDERING_FACTOR:
        warnings.append(
            f"tau_R/tau_c = {p.tau_R / p.tau_c:.3g} < {_ORDERING_FACTOR:g}: "
            "superradiant lifetime is not well separated from the cooperative time"
        )
    if pulse_duration >= p.tau_R / 10.0:
        warnings.append(
            f"control pulse duration {pulse_duration:.3g} s is not short compared "
            f"with tau_R = {p.tau_R:.3g} s (want < tau_R/10)"
        )
    if not 0.2 <= p.fresnel <= 5.0:
        warnings.append(
            f"Fresnel number {p.fresnel:.3g} outside [0.2, 5]: one-mode "
            "approximation questionable"
        )
    if p.t2_star is not None and p.tau_R > p.t2_star:
        warnings.append(
            f"tau_R = {p.tau_R:.3g} s exceeds inhomogeneous lifetime "
            f"T2* = {p.t2_star:.3g} s: collective decay dephases before completing"
        )
    if pit_width is not None:
        t_min = _PIT_FACTOR / pit_width
        if p.tau_R < t_min:
            warnings.append(
                f"superradiant decay must be slower than {t_min:.3g} s to fit "
                f"inside a {pit_width:.3g} Hz spectral pit, but tau_R = "
                f"{p.tau_R:.3g} s"
            )
    return warnings


def density_for_tau_r(inp: EnsembleInput, target_tau_r: float) -> float:
    """Number density (m^-3) that yields the requested superradiant lifetime.

    Inverse of tau_R = T1 / (N mu) with N = density * S * L_z; exact to
    round-off, so a derive_params round trip reproduces target_tau_r to
    better than 1e-12 relative.
    """
    if not target_tau_r > 0:
        raise DomainError("target_tau_r must be strictly positive")
    s = inp.area
    mu = _mu(inp.wavelength, s)
    n = inp.excited_lifetime / (target_tau_r * mu)
    return n / (s * inp.sample_length)
