"""Power-functional energy of the pair, closed under the spectral family.

The interaction energy is evaluated through the pair kernel

    K_p(x1, x2) = 2 n1(x1) n1(x2) - gamma_p^q(x1, x2) gamma_p^r(x1, x2)

built from fractional powers of a model one-matrix gamma_p (module
`spectral`).  The classic square-root choice is q = r = 1/2; here q is a
free exponent with two closures for r:

    sum_one:      r = 1 - q      (kernel normalization is exactly 1)
    equal_powers: r = q          (normalization (1-xi)^2q / (1-xi^2q))

With the density width pinned by omega_p = omega_s (1+xi_p)/(1-xi_p), every
term of the energy is closed-form in (xi_p, q):

    kinetic      T_p  = omega_s/2 * ((1+xi_p)/(1-xi_p))^2
    confinement        omega0^2 / (2 omega_s)            (xi_p independent)
    interaction  W_p  = -coupling*omega0^2/(2 omega_s) * bracket

    bracket(sum_one)      = 2 - (1-xi_p^q)(1-xi_p^(1-q)) / (1+xi_p)
    bracket(equal_powers) = 2 - (1-xi_p^q)(1-xi_p^r)(1-xi_p)^(q+r+1)
                                / ((1+xi_p)(1-xi_p^(q+r))^2)

At q = 1/2 and xi_p = xi(coupling) the energy reproduces the exact ground
state exactly, term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DomainError
from .model import LAMBDA_MAX, EnergyBreakdown, ModelParams, density, derive_frequencies
from .spectral import ParametricState, _check_xi, occupation_spectrum, one_matrix

__all__ = [
    "XI_P_MAX",
    "KernelFamily",
    "KernelSpec",
    "kernel_normalization",
    "interaction_bracket",
    "interaction_bracket_equal_powers",
    "kinetic_parametric",
    "energy_parametric",
    "kernel_eval",
]

#: Energies diverge as xi_p -> 1; evaluations this close to the pole are
#: rejected instead of returning inf.
XI_P_MAX = 1.0 - 1e-9


class KernelFamily(Enum):
    SUM_ONE = "sum_one"
    EQUAL_POWERS = "equal_powers"


@dataclass(frozen=True)
class KernelSpec:
    """Exponent pair (q, r) of the pair kernel and which closure ties them."""

    q: float
    r: float
    family: KernelFamily

    def __post_init__(self):
        if not (0.0 < self.q < 1.0 and 0.0 < self.r < 1.0):
            raise DomainError(f"kernel powers must lie in (0, 1), got q={self.q}, r={self.r}")
        if self.family is KernelFamily.SUM_ONE and abs(self.q + self.r - 1.0) > 1e-12:
            raise DomainError(f"sum_one closure needs q + r = 1, got q={self.q}, r={self.r}")
        if self.family is KernelFamily.EQUAL_POWERS and self.q != self.r:
            raise DomainError(f"equal_powers closure needs q = r, got q={self.q}, r={self.r}")

    @classmethod
    def sum_one(cls, q: float) -> "KernelSpec":
        return cls(q=q, r=1.0 - q, family=KernelFamily.SUM_ONE)

    @classmethod
    def equal_powers(cls, q: float) -> "KernelSpec":
        """q = r variant; exponents near [0.525, 0.65] are the interesting window."""
        return cls(q=q, r=q, family=KernelFamily.EQUAL_POWERS)


def kernel_normalization(spec: KernelSpec, xi: float) -> float:
    """Integral of gamma^q gamma^r over the plane: (1-xi)^(q+r) / (1-xi^(q+r)).

    Equals sum_n P_n^(q+r); exactly 1 when q + r = 1 or xi = 0.
    """
    _check_xi(xi)
    s = spec.q + spec.r
    if xi == 0.0:
        return 1.0
    return (1.0 - xi) ** s / (1.0 - xi ** s)


def interaction_bracket(q: float, xi: float) -> float:
    """Dimensionless interaction factor 2 - (1-xi^q)(1-xi^(1-q))/(1+xi).

    Symmetric under q <-> 1-q; equals 1 at xi = 0 and 2 - omega_s/omega1 at
    (q, xi) = (1/2, xi(coupling)).
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    _check_xi(xi)
    return 2.0 - (1.0 - xi ** q) * (1.0 - xi ** (1.0 - q)) / (1.0 + xi)


def interaction_bracket_equal_powers(q: float, r: float, xi: float) -> float:
    """Interaction factor for free exponents, not tied to q + r = 1.

    2 - (1-xi^q)(1-xi^r)(1-xi)^(q+r+1) / ((1+xi)(1-xi^(q+r))^2); reduces to
    interaction_bracket when q + r = 1.
    """
    if not (q > 0.0 and r > 0.0):
        raise DomainError(f"kernel powers must be positive, got q={q}, r={r}")
    _check_xi(xi)
    if xi == 0.0:
        return 1.0
    s = q + r
    return 2.0 - (
        (1.0 - xi ** q) * (1.0 - xi ** r) * (1.0 - xi) ** (s + 1.0)
        / ((1.0 + xi) * (1.0 - xi ** s) ** 2)
    )


def kinetic_parametric(omega_s: float, xi_p: float) -> float:
    """Two-particle kinetic energy omega_s/2 ((1+xi_p)/(1-xi_p))^2 of the family."""
    if not omega_s > 0.0:
        raise DomainError(f"omega_s must be positive, got {omega_s}")
    if not (0.0 <= xi_p <= XI_P_MAX):
        raise DomainError(f"xi_p must lie in [0, {XI_P_MAX}], got {xi_p}")
    return 0.5 * omega_s * ((1.0 + xi_p) / (1.0 - xi_p)) ** 2


def energy_parametric(params: ModelParams, spec: KernelSpec, xi_p: float) -> EnergyBreakdown:
    """Total model energy at correlation parameter xi_p.

    The confinement term omega0^2/(2 omega_s) carries no xi_p dependence
    because the density width is held at the exact omega_s.
    """
    if not (0.0 <= params.coupling <= LAMBDA_MAX):
        raise DomainError(
            f"parametric energies are defined for coupling in [0, {LAMBDA_MAX}], "
            f"got {params.coupling}"
        )
    f = derive_frequencies(params)
    kinetic = kinetic_parametric(f.omega_s, xi_p)
    external = params.omega0 ** 2 / (2.0 * f.omega_s)
    if spec.family is KernelFamily.SUM_ONE:
        bracket = interaction_bracket(spec.q, xi_p)
    else:
        bracket = interaction_bracket_equal_powers(spec.q, spec.r, xi_p)
    interaction = -0.5 * params.coupling * params.omega0 ** 2 / f.omega_s * bracket
    return EnergyBreakdown.from_terms(kinetic, external, interaction)


def _check_state_matches(spec: KernelSpec, state: ParametricState):
    if (state.q, state.r) != (spec.q, spec.r):
        raise DomainError(f"state powers (q={state.q}, r={state.r}) differ from the "
                          f"kernel's (q={spec.q}, r={spec.r})")


def kernel_eval(spec: KernelSpec, params: ModelParams, state: ParametricState, x1, x2):
    """Pointwise pair kernel 2 n1(x1) n1(x2) - gamma_p^q gamma_p^r.

    n1 is the exact Gaussian density; the gamma_p factors are spectral
    series at (state.xi_p, state.omega_p) at the default truncation of
    `occupation_spectrum`.  The state's powers must be the kernel's (q, r);
    otherwise DomainError.
    """
    _check_state_matches(spec, state)
    spectrum = occupation_spectrum(state.xi_p)
    direct = 2.0 * density(params, x1) * density(params, x2)
    gq = one_matrix(spectrum, state.omega_p, spec.q, x1, x2)
    gr = one_matrix(spectrum, state.omega_p, spec.r, x1, x2)
    return direct - gq * gr
