"""Closed-form ground state of two harmonically coupled particles on a line.

Conventions (Hartree-like units, hbar = m = 1):

    H = -1/2 (d^2/dx1^2 + d^2/dx2^2)
        + omega0^2 (x1^2 + x2^2) / 2
        - coupling * omega0^2 (x1 - x2)^2 / 2

The quadratic interaction is repulsive for coupling > 0.  Normal modes
(x1 +/- x2)/sqrt(2) decouple the problem into two oscillators:

    omega1 = omega0                      (center of mass)
    omega2 = omega0 * sqrt(1 - 2*coupling)   (relative motion)

so a bound ground state exists only for coupling < 1/2; at the boundary the
relative mode becomes free and the pair dissociates.  Everything in this
module is an explicit function of (omega1, omega2), evaluated at every
coupling that `ModelParams` accepts, attractive (coupling < 0) included:

    psi(x1, x2) = (omega1*omega2/pi^2)^(1/4)
                  * exp(-(x1^2 + x2^2)(omega1 + omega2)/4)
                  * exp(-x1*x2*(omega1 - omega2)/2)
    E           = (omega1 + omega2)/2
    n1(x)       = sqrt(omega_s/pi) * exp(-omega_s x^2),
                  omega_s = 2*omega1*omega2/(omega1 + omega2)

The one-particle density is again a Gaussian, with the *harmonic mean*
frequency omega_s.  Its square root satisfies a one-particle Schroedinger
equation with the effective potential

    V_s(x) = omega_s^2 x^2 / 2 + (mu - omega_s/2),
    mu     = (omega1 + omega2)^2 / (4*omega2).

The correlation parameter

    xi = z^2,  z = -(sqrt(omega1) - sqrt(omega2)) / (sqrt(omega1) + sqrt(omega2))

drives the occupation spectrum of the one-matrix (module `spectral`); it is
also given directly by the coupling through

    xi = ((1 - (1 - 2*coupling)^(1/4)) / (1 + (1 - 2*coupling)^(1/4)))^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "LAMBDA_STABILITY",
    "LAMBDA_MAX",
    "ModelParams",
    "DerivedFrequencies",
    "EnergyBreakdown",
    "derive_frequencies",
    "exact_energy",
    "wavefunction",
    "density",
    "effective_potential",
    "hartree_fock",
]

#: Couplings at or beyond this value have no bound ground state.
LAMBDA_STABILITY = 0.5

#: Computation window for spectra, parametric energies and quadrature.
#: Closed forms remain usable up to the stability boundary, but spectra and
#: root finding become ill-conditioned as omega2 -> 0.
LAMBDA_MAX = 0.4999

#: Trap frequencies whose square (every energy carries omega0^2) stays a normal double.
_OMEGA0_MIN = 1e-150
_OMEGA0_MAX = 1e150


@dataclass(frozen=True)
class ModelParams:
    """Confinement frequency and dimensionless interaction strength.

    coupling > 0 is repulsive, coupling < 0 attractive.  Any coupling below
    the stability bound 1/2 defines a valid bound state.  omega0 must lie in
    [1e-150, 1e150], where omega0^2 neither overflows nor loses precision
    as a subnormal.
    """

    omega0: float = 1.0
    coupling: float = 0.0

    def __post_init__(self):
        if not _OMEGA0_MIN <= self.omega0 <= _OMEGA0_MAX:
            raise DomainError(f"omega0 must lie in [1e-150, 1e150], got {self.omega0}")
        if not math.isfinite(self.coupling):
            raise DomainError(f"coupling must be finite, got {self.coupling}")
        if not self.coupling < LAMBDA_STABILITY:
            raise DomainError(
                f"coupling {self.coupling} is at or beyond the stability bound 0.5; "
                "the relative-mode frequency omega0*sqrt(1 - 2*coupling) must stay real"
            )


@dataclass(frozen=True)
class DerivedFrequencies:
    """Mode frequencies and the correlation parameter derived from them.

    omega_s is the harmonic mean of the mode frequencies (density scale),
    omega_bar their geometric mean (natural-orbital scale).  z keeps the
    sign of sqrt(omega2) - sqrt(omega1); xi = z^2.
    """

    omega1: float
    omega2: float
    omega_s: float
    omega_bar: float
    z: float
    xi: float


@dataclass(frozen=True)
class EnergyBreakdown:
    """Kinetic, confinement and interaction contributions to a total energy."""

    kinetic: float
    external: float
    interaction: float
    total: float

    @classmethod
    def from_terms(cls, kinetic, external, interaction):
        return cls(kinetic, external, interaction, kinetic + external + interaction)


def derive_frequencies(params: ModelParams) -> DerivedFrequencies:
    """Normal-mode frequencies, their means, and the correlation parameter.

    xi is evaluated from the quarter-power closed form in the coupling, with
    1 - (1 - 2*coupling)^(1/4) taken as -expm1(log1p(-2*coupling)/4) so that
    it keeps its relative accuracy at small coupling; z is kept for its sign.
    """
    omega1 = params.omega0
    omega2 = params.omega0 * math.sqrt(1.0 - 2.0 * params.coupling)
    omega_s = 2.0 * omega1 * omega2 / (omega1 + omega2)
    omega_bar = math.sqrt(omega1 * omega2)
    s1 = math.sqrt(omega1)
    s2 = math.sqrt(omega2)
    z = -(s1 - s2) / (s1 + s2)
    one_minus_u = -math.expm1(math.log1p(-2.0 * params.coupling) / 4.0)
    xi = (one_minus_u / (2.0 - one_minus_u)) ** 2
    return DerivedFrequencies(omega1, omega2, omega_s, omega_bar, z, xi)


def exact_energy(params: ModelParams) -> EnergyBreakdown:
    """Ground-state energy split as kinetic + confinement + interaction.

    The three terms are

        (omega1 + omega2)/4
        + omega0^2 / (2*omega_s)
        - coupling * omega0^2 / (2*omega_s) * (2 - omega_s/omega1)

    and their sum collapses to (omega1 + omega2)/2.
    """
    f = derive_frequencies(params)
    kinetic = 0.25 * (f.omega1 + f.omega2)
    external = params.omega0 ** 2 / (2.0 * f.omega_s)
    interaction = (
        -0.5 * params.coupling * params.omega0 ** 2 / f.omega_s * (2.0 - f.omega_s / f.omega1)
    )
    return EnergyBreakdown.from_terms(kinetic, external, interaction)


def wavefunction(params: ModelParams, x1, x2):
    """Normalized two-particle ground-state amplitude at (x1, x2).

    Accepts scalars or broadcastable arrays.  Symmetric under particle
    exchange by construction.
    """
    f = derive_frequencies(params)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    norm = (f.omega1 * f.omega2 / math.pi ** 2) ** 0.25
    expo = (
        -0.25 * (x1 ** 2 + x2 ** 2) * (f.omega1 + f.omega2)
        - 0.5 * x1 * x2 * (f.omega1 - f.omega2)
    )
    out = norm * np.exp(expo)
    return float(out) if out.ndim == 0 else out


def density(params: ModelParams, x):
    """One-particle ground-state density sqrt(omega_s/pi) exp(-omega_s x^2).

    Normalized to one particle.
    """
    f = derive_frequencies(params)
    x = np.asarray(x, dtype=float)
    out = math.sqrt(f.omega_s / math.pi) * np.exp(-f.omega_s * x ** 2)
    return float(out) if out.ndim == 0 else out


def effective_potential(params: ModelParams, x):
    """Potential whose ground state is sqrt(density), plus its eigenvalue mu.

    Returns (v, mu) with

        v(x) = omega_s^2 x^2 / 2 + (mu - omega_s/2),
        mu   = (omega1 + omega2)^2 / (4*omega2),

    so that -1/2 f'' + v f = mu f holds for f = sqrt(n1).
    """
    f = derive_frequencies(params)
    mu = (f.omega1 + f.omega2) ** 2 / (4.0 * f.omega2)
    x = np.asarray(x, dtype=float)
    v = 0.5 * f.omega_s ** 2 * x ** 2 + (mu - 0.5 * f.omega_s)
    return (float(v) if v.ndim == 0 else v), mu


def hartree_fock(params: ModelParams):
    """Best single-Gaussian (mean-field) energy and its orbital frequency.

    Minimizes omega/2 + (1 - coupling)*omega0^2/(2*omega) over the orbital
    frequency omega.  The functional is strictly convex in omega for
    coupling < 1, so its stationary point omega_hf = omega0*sqrt(1 -
    coupling) is the minimum, with minimum energy omega_hf.

    Returns (omega_hf, EnergyBreakdown).  The mean-field total is an upper
    bound on the exact energy, with equality only at coupling = 0.
    """
    omega_hf = params.omega0 * math.sqrt(1.0 - params.coupling)
    kinetic = 0.5 * omega_hf
    external = params.omega0 ** 2 / (2.0 * omega_hf)
    interaction = -params.coupling * params.omega0 ** 2 / (2.0 * omega_hf)
    return omega_hf, EnergyBreakdown.from_terms(kinetic, external, interaction)
