"""Reference arithmetic for the benchmark's output checks, stdlib `math` only.

Everything here is derived from the model's closed forms, not from the
package: the benchmark must be able to tell a wrong number from a right one
without trusting the code it times.  All functions take omega0 = 1, the
only confinement the workloads use.

    xi(lam)       = ((1 - u)/(1 + u))^2,  u = (1 - 2 lam)^(1/4)
    omega_s(lam)  = 2 w2 / (1 + w2),      w2 = sqrt(1 - 2 lam)
    rhs(lam)      = lam / (2 omega_s)^2
    lhs(q, x)     = x^q / (q (x^(2q-1) - x) + (1-q)(1 - x^(2q))) * ((1+x)/(1-x))^3
    E_ex(lam)     = (1 + sqrt(1 - 2 lam)) / 2
"""

from __future__ import annotations

import math

#: Largest repulsive coupling the program computes at; rows beyond it are errors.
LAMBDA_MAX = 0.4999

#: The eight couplings of the small-coupling scaling fit, geometric on [1e-4, 1e-3].
SCALING_COUPLINGS = tuple(1e-4 * 10.0 ** (i / 7.0) for i in range(8))


def xi(lam: float) -> float:
    """Exact correlation parameter of the ground state.

    1 - u is formed as -expm1(log1p(-2 lam)/4), which keeps full relative
    precision at small couplings, where 1 - (1 - 2 lam)^(1/4) cancels.
    """
    one_minus_u = -math.expm1(0.25 * math.log1p(-2.0 * lam))
    return (one_minus_u / (2.0 - one_minus_u)) ** 2


def omega_s(lam: float) -> float:
    """Harmonic mean of the two mode frequencies (density width)."""
    w2 = math.sqrt(1.0 - 2.0 * lam)
    return 2.0 * w2 / (1.0 + w2)


def rhs(lam: float) -> float:
    """Right side lam / (2 omega_s)^2 of the stationarity condition."""
    return lam / (2.0 * omega_s(lam)) ** 2


def lhs(q: float, x: float) -> float:
    """Left side of the stationarity condition at correlation x in (0, 1)."""
    den = q * (x ** (2.0 * q - 1.0) - x) + (1.0 - q) * (1.0 - x ** (2.0 * q))
    return x ** q / den * ((1.0 + x) / (1.0 - x)) ** 3


def exact_energy(lam: float) -> float:
    """Ground-state energy (omega1 + omega2)/2."""
    return 0.5 * (1.0 + math.sqrt(1.0 - 2.0 * lam))


def kinetic(lam: float, xi_p: float) -> float:
    """Kinetic energy omega_s/2 ((1 + xi_p)/(1 - xi_p))^2 of the parametric family."""
    return 0.5 * omega_s(lam) * ((1.0 + xi_p) / (1.0 - xi_p)) ** 2


def interaction(lam: float, q: float, xi_p: float) -> float:
    """Interaction energy -lam/(2 omega_s) * (2 - (1-x^q)(1-x^(1-q))/(1+x))."""
    bracket = 2.0 - (1.0 - xi_p ** q) * (1.0 - xi_p ** (1.0 - q)) / (1.0 + xi_p)
    return -0.5 * lam / omega_s(lam) * bracket


def parametric_energy(lam: float, q: float, xi_p: float) -> float:
    """Total parametric energy: kinetic + confinement 1/(2 omega_s) + interaction."""
    return kinetic(lam, xi_p) + 0.5 / omega_s(lam) + interaction(lam, q, xi_p)


def _log_bisect(f, lo: float, hi: float) -> float:
    """Root of f on [lo, hi] by bisection on log x, run until the bracket stops shrinking."""
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    if (f_lo > 0.0) == (f(hi) > 0.0):
        raise ValueError(f"no sign change on [{lo!r}, {hi!r}]")
    while True:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


def root(q: float, lam: float) -> float:
    """Stationary xi_p: the root of lhs(q, x) = rhs(lam), to full double precision."""
    target = rhs(lam)
    return _log_bisect(lambda x: lhs(q, x) - target, 1e-300, 1.0 - 1e-12)


def scaling_fit(q: float) -> float:
    """Least-squares slope of log xi_p against log coupling over SCALING_COUPLINGS."""
    xs = [math.log(lam) for lam in SCALING_COUPLINGS]
    ys = [math.log(root(q, lam)) for lam in SCALING_COUPLINGS]
    x_bar = math.fsum(xs) / len(xs)
    y_bar = math.fsum(ys) / len(ys)
    num = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    den = math.fsum((x - x_bar) ** 2 for x in xs)
    return num / den


def crossing(q: float) -> float:
    """Coupling at which xi_p(q) meets the exact xi, from the reduction in xi alone.

    At the crossing xi_p = xi, and q = 1/2 recovers xi exactly, so the
    crossing solves lhs(q, x) = lhs(1/2, x); the common factor
    ((1+x)/(1-x))^3 cancels.  The root maps back to a coupling through
    lam = (1 - u^4)/2 with u = (1 - sqrt(x))/(1 + sqrt(x)).
    """
    if q == 0.5:
        raise ValueError("no crossing at q = 1/2")

    def gap(x: float) -> float:
        den = q * (x ** (2.0 * q - 1.0) - x) + (1.0 - q) * (1.0 - x ** (2.0 * q))
        return x ** q / den - math.sqrt(x) / (1.0 - x)

    x = _log_bisect(gap, 1e-12, xi(LAMBDA_MAX))
    s = math.sqrt(x)
    u = (1.0 - s) / (1.0 + s)
    return 0.5 * (1.0 - u ** 4)


def root_is_bracketed(q: float, lam: float, xi_p: float, rel: float = 1e-12) -> bool:
    """True when lhs - rhs changes sign across xi_p * (1 -/+ rel).

    lhs is increasing in x, so this places the true root within `rel`
    relative of xi_p at the cost of two evaluations.
    """
    target = rhs(lam)
    return lhs(q, xi_p * (1.0 - rel)) < target < lhs(q, xi_p * (1.0 + rel))
