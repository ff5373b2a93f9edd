"""Correlation measures of the geometric occupation spectrum.

All measures are closed-form in the correlation parameter xi:

    purity               sum_n P_n^2 = (1 - xi)/(1 + xi)
    linear entropy       1 - purity
    quasiparticle weight P_0 - P_1 = (1 - xi)^2

Because xi depends on the coupling only through (1 - 2*coupling)^(1/4),
each repulsive coupling has an attractive partner with the same spectrum:

    dual_coupling(c) = -c / (1 - 2c),

so every spectral measure is blind to the sign of the interaction once
couplings are paired this way.  The comparison of these measures between
the variational and the exact spectrum needs a solve and lives in `solver`
(`entropy_comparison`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .spectral import _check_xi

__all__ = [
    "EntropyReport",
    "purity",
    "linear_entropy",
    "quasiparticle_weight",
    "entropy_report",
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


@dataclass(frozen=True)
class EntropyReport:
    xi: float
    purity: float
    linear_entropy: float
    quasiparticle_weight: float


def entropy_report(xi: float) -> EntropyReport:
    """Bundle the three spectral measures for a single xi."""
    return EntropyReport(
        xi=xi,
        purity=purity(xi),
        linear_entropy=linear_entropy(xi),
        quasiparticle_weight=quasiparticle_weight(xi),
    )


def dual_coupling(coupling: float) -> float:
    """Attractive partner -coupling/(1 - 2*coupling) with the same spectrum.

    Defined for repulsive couplings strictly inside (0, 0.5).
    """
    if not (0.0 < coupling < 0.5):
        raise DomainError(f"dual_coupling needs coupling in (0, 0.5), got {coupling}")
    return -coupling / (1.0 - 2.0 * coupling)
