"""Occupation spectra and natural-orbital expansions of the one-matrix.

The ground-state one-matrix of the coupled pair diagonalizes in harmonic
oscillator eigenfunctions of the geometric-mean frequency omega_bar:

    gamma(x, x') = sum_n P_n phi_n(x; omega_bar) phi_n(x'; omega_bar),
    P_n          = (1 - xi) xi^n,

a geometric occupation spectrum governed by the correlation parameter xi.
The same machinery supports a one-parameter family of model one-matrices:
pick any xi_p in [0, 1) and carry the orbitals at the frequency

    omega_p = omega_s (1 + xi_p) / (1 - xi_p),

which pins the density width to the exact omega_s at every xi_p.  At
xi_p = xi this reproduces gamma exactly (then omega_p = omega_bar).
`parametric_state` builds that point of the family; `one_matrix` sums the
series pointwise (its diagonal at power 1 is the density), and
`hermite_basis` supplies the orbitals.

Series are truncated once the geometric tail xi^N drops to 1e-14, a fixed
tolerance; N is clamped to [16, 512].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "TRUNCATION_MIN",
    "TRUNCATION_MAX",
    "OccupationSpectrum",
    "ParametricState",
    "occupation_spectrum",
    "truncation_order",
    "hermite_basis",
    "one_matrix",
    "parametric_state",
]

TRUNCATION_MIN = 16
TRUNCATION_MAX = 512
#: Geometric tail xi^N at which every spectrum is truncated.
_TAIL_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class OccupationSpectrum:
    """Truncated geometric occupation weights P_n = (1 - xi) xi^n.

    weights[n] holds P_n for n < truncation; tail_mass = xi^truncation is
    the discarded remainder, so sum(weights) + tail_mass = 1 up to rounding.
    """

    xi: float
    weights: np.ndarray
    truncation: int
    tail_mass: float


def _check_xi(xi, what: str = "xi"):
    """Return xi as a float, or as an array if it has dimensions, after
    checking that every value lies in [0, 1); the one xi check that the
    spectral, mueller and entropy layers share."""
    if isinstance(xi, (float, int)):
        if 0.0 <= xi < 1.0:
            return float(xi)
    else:
        arr = np.asarray(xi, dtype=float)
        if np.all((arr >= 0.0) & (arr < 1.0)):
            return float(arr) if arr.ndim == 0 else arr
    raise DomainError(f"{what} must lie in [0, 1), got {xi}")


def truncation_order(xi: float) -> int:
    """Smallest N with xi^N <= 1e-14, clamped to [16, 512]."""
    if xi == 0.0:
        return TRUNCATION_MIN
    n = math.ceil(math.log(_TAIL_TOL) / math.log(xi))
    return min(max(n, TRUNCATION_MIN), TRUNCATION_MAX)


def occupation_spectrum(xi: float) -> OccupationSpectrum:
    """Geometric occupation spectrum for correlation parameter xi.

    Weights decrease strictly (for xi > 0) and sum to 1 - xi^N with the
    tail mass making up the difference.
    """
    _check_xi(xi)
    n = truncation_order(xi)
    powers = xi ** np.arange(n, dtype=float)
    weights = (1.0 - xi) * powers
    tail = xi ** float(n)
    return OccupationSpectrum(xi=xi, weights=weights, truncation=n, tail_mass=tail)


def hermite_basis(n_max: int, omega: float, x) -> np.ndarray:
    """Stack phi_0 .. phi_{n_max-1} at frequency omega; shape (n_max,) + x.shape.

    Evaluated through the normalized three-term recurrence

        phi_0 = (omega/pi)^(1/4) exp(-omega x^2 / 2)
        phi_k = sqrt(2/k) u phi_{k-1} - sqrt((k-1)/k) phi_{k-2},  u = sqrt(omega) x,

    which is stable in n and never forms factorials.
    """
    if n_max < 1:
        raise DomainError(f"need at least one orbital, got n_max={n_max}")
    if not omega > 0.0:
        raise DomainError(f"orbital frequency must be positive, got {omega}")
    x = np.asarray(x, dtype=float)
    u = math.sqrt(omega) * x
    out = np.empty((n_max,) + u.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * u ** 2)
    if n_max > 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for k in range(2, n_max):
        out[k] = math.sqrt(2.0 / k) * u * out[k - 1] - math.sqrt((k - 1.0) / k) * out[k - 2]
    return omega ** 0.25 * out


def one_matrix(spectrum: OccupationSpectrum, omega: float, power: float, x, xp):
    """Pointwise sum_n P_n^power phi_n(x) phi_n(x') at frequency omega.

    power = 1 gives the one-matrix itself; fractional powers give the
    kernels entering the correlation energy.  x and xp broadcast against
    each other; when xp is x (the diagonal), one basis serves both.
    """
    if not power > 0.0:
        raise DomainError(f"power must be positive, got {power}")
    bx, bxp = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(xp, dtype=float))
    basis_x = hermite_basis(spectrum.truncation, omega, bx)
    basis_xp = basis_x if xp is x else hermite_basis(spectrum.truncation, omega, bxp)
    w = spectrum.weights ** power
    out = np.einsum("n,n...,n...->...", w, basis_x, basis_xp)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ParametricState:
    """A point of the model family: kernel power q (its partner is 1 - q) plus (xi_p, omega_p)."""

    q: float
    xi_p: float
    omega_p: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"kernel power q must lie in (0, 1), got {self.q}")
        _check_xi(self.xi_p, "xi_p")
        if not self.omega_p > 0.0:
            raise DomainError(f"omega_p must be positive, got {self.omega_p}")


def parametric_state(omega_s: float, q: float, xi_p: float) -> ParametricState:
    """The state at kernel power q and xi_p, with omega_p = omega_s (1 + xi_p)/(1 - xi_p).

    At xi_p = xi this is the exact state: omega_p = omega_bar.
    """
    if not omega_s > 0.0:
        raise DomainError(f"omega_s must be positive, got {omega_s}")
    _check_xi(xi_p, "xi_p")
    return ParametricState(q=q, xi_p=xi_p, omega_p=omega_s * (1.0 + xi_p) / (1.0 - xi_p))
