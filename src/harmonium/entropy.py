"""Correlation measures of the geometric occupation spectrum.

All measures are closed-form in the correlation parameter xi:

    purity               sum_n P_n^2 = (1 - xi)/(1 + xi)
    linear entropy       1 - purity
    quasiparticle weight P_0 - P_1 = (1 - xi)^2

Each is its own function of xi; a caller that wants all three calls all
three.

Because xi depends on the coupling only through (1 - 2*coupling)^(1/4),
each repulsive coupling has an attractive partner with the same spectrum:

    dual_coupling(c) = -c / (1 - 2c),

so every spectral measure is blind to the sign of the interaction once
couplings are paired this way.  The comparison of these measures between
the variational and the exact spectrum needs a solve and lives in `solver`
(`entropy_comparison`).
"""

from __future__ import annotations

from .errors import DomainError
from .spectral import _check_xi

__all__ = [
    "purity",
    "linear_entropy",
    "quasiparticle_weight",
    "dual_coupling",
]


def purity(xi):
    """(1 - xi)/(1 + xi); equals sum of squared occupation weights."""
    x = _check_xi(xi)
    return (1.0 - x) / (1.0 + x)


def linear_entropy(xi):
    """1 - purity(xi); zero only for the uncorrelated spectrum."""
    x = _check_xi(xi)
    return 2.0 * x / (1.0 + x)


def quasiparticle_weight(xi):
    """Occupation gap P_0 - P_1 = (1 - xi)^2 between the two leading orbitals."""
    w = 1.0 - _check_xi(xi)
    # a product, not **2: libm's pow and numpy's square can round apart
    return w * w


def dual_coupling(coupling: float) -> float:
    """Attractive partner -coupling/(1 - 2*coupling) with the same spectrum.

    Defined for repulsive couplings strictly inside (0, 0.5).
    """
    if not (0.0 < coupling < 0.5):
        raise DomainError(f"dual_coupling needs coupling in (0, 0.5), got {coupling}")
    return -coupling / (1.0 - 2.0 * coupling)
