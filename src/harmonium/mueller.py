"""Power-functional energy of the pair, closed under the spectral family.

The interaction energy is evaluated through the pair kernel

    K_p(x1, x2) = 2 n1(x1) n1(x2) - gamma_p^q(x1, x2) gamma_p^r(x1, x2)

built from fractional powers of a model one-matrix gamma_p (module
`spectral`).  The classic square-root choice is q = r = 1/2; here q is a
free exponent and r = 1 - q, the Mueller-type closure under which the
kernel integrates to exactly 1 (gamma^q gamma^r carries the mass of one
particle).

With the density width pinned by omega_p = omega_s (1+xi_p)/(1-xi_p), every
term of the energy is closed-form in (xi_p, q):

    kinetic      T_p  = omega_s/2 * ((1+xi_p)/(1-xi_p))^2
    confinement        omega0^2 / (2 omega_s)            (xi_p independent)
    interaction  W_p  = -coupling*omega0^2/(2 omega_s) * bracket

    bracket = 2 - (1-xi_p^q)(1-xi_p^(1-q)) / (1+xi_p)

At q = 1/2 and xi_p = xi(coupling) the energy reproduces the exact ground
state exactly, term by term.  This module holds the closed forms alone; the
kernel itself is evaluated pointwise only by the quadrature oracle (module
`oracle`), which integrates it as the independent check of W_p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import LAMBDA_MAX, EnergyBreakdown, ModelParams, _modes
from .spectral import _check_xi

__all__ = [
    "XI_P_MAX",
    "KernelSpec",
    "interaction_bracket",
    "kinetic_parametric",
    "energy_parametric",
]

#: Energies diverge as xi_p -> 1; evaluations this close to the pole are
#: rejected instead of returning inf.
XI_P_MAX = 1.0 - 1e-9


@dataclass(frozen=True)
class KernelSpec:
    """Exponent q of the pair kernel; its partner r = 1 - q is implied.

    In binary floating point q + (1.0 - q) == 1.0 holds exactly for every
    q in (0, 1), so the kernel mass is exactly 1 with no normalization.
    """

    q: float

    def __post_init__(self):
        if not (0.0 < self.q < 1.0 and 0.0 < self.r < 1.0):
            raise DomainError(f"kernel powers must lie in (0, 1), got q={self.q}, r={self.r}")

    @property
    def r(self) -> float:
        return 1.0 - self.q

    @classmethod
    def sum_one(cls, q: float) -> "KernelSpec":
        return cls(q=q)


def interaction_bracket(q: float, xi):
    """Dimensionless interaction factor 2 - (1-xi^q)(1-xi^(1-q))/(1+xi).

    Accepts scalar or array xi.  Symmetric under q <-> 1-q; equals 1 at
    xi = 0 and 2 - omega_s/omega1 at (q, xi) = (1/2, xi(coupling)).
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    xi = _check_xi(xi)
    return 2.0 - (1.0 - xi ** q) * (1.0 - xi ** (1.0 - q)) / (1.0 + xi)


def kinetic_parametric(omega_s: float, xi_p):
    """Two-particle kinetic energy omega_s/2 ((1+xi_p)/(1-xi_p))^2 of the family,
    for scalar or array xi_p."""
    if not omega_s > 0.0:
        raise DomainError(f"omega_s must be positive, got {omega_s}")
    if isinstance(xi_p, (float, int)):
        valid = 0.0 <= xi_p <= XI_P_MAX
    else:
        xi_p = np.asarray(xi_p, dtype=float)
        valid = np.all((0.0 <= xi_p) & (xi_p <= XI_P_MAX))
    if not valid:
        raise DomainError(f"xi_p must lie in [0, {XI_P_MAX}], got {xi_p}")
    return 0.5 * omega_s * ((1.0 + xi_p) / (1.0 - xi_p)) ** 2


def energy_parametric(params: ModelParams, spec: KernelSpec, xi_p) -> EnergyBreakdown:
    """Total model energy at correlation parameter xi_p, a scalar or an array.

    An array xi_p gives array kinetic, interaction and total terms.  The
    confinement term omega0^2/(2 omega_s) carries no xi_p dependence
    because the density width is held at the exact omega_s, taken from
    `model._modes` without forming xi: the oracle's scan polish calls this per point.
    """
    if not (0.0 <= params.coupling <= LAMBDA_MAX):
        raise DomainError(
            f"parametric energies are defined for coupling in [0, {LAMBDA_MAX}], "
            f"got {params.coupling}"
        )
    omega_s = _modes(params)[2]
    kinetic = kinetic_parametric(omega_s, xi_p)
    external = params.omega0 ** 2 / (2.0 * omega_s)
    bracket = interaction_bracket(spec.q, xi_p)
    interaction = 0.0 - 0.5 * params.coupling * params.omega0 ** 2 / omega_s * bracket
    return EnergyBreakdown.from_terms(kinetic, external, interaction)
