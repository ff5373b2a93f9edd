"""Quadrature cross-checks for every closed form in the package.

Nothing here reuses the spectral recurrence or the closed-form energies it
verifies: orbitals are evaluated through scipy's physicists' Hermite
polynomials with explicit log-normalization, energies come from mapped
Gauss-Hermite grids, and minima from brute-force scans.  Agreement between
the two routes is the correctness argument for both.  The roots the scans
are held against come from `solver`, which never imports this module.

Mapped Gauss-Hermite rules hold nodes x_i = t_i/sqrt(a) and bare weights
W_i = w_i exp(t_i^2)/sqrt(a), so that sum_i W_i f(x_i) approximates the
plain integral of any f decaying like exp(-a x^2).  The two-particle
integrands factor into such Gaussians times entire cross terms; after
mapping, the cross term exp(-b t1 t2) converges geometrically with ratio
(b/2)^2 where b = (omega1 - omega2)/a < 2.  The ratio approaches 1 as
omega2 -> 0, which is why the oracle window stops at coupling = 0.45.
The pair kernel is tabulated once per rule: `run_verification` takes its
mass and interaction checks from the same grid, and each grid builds its
reference basis once for both powers gamma^q and gamma^(1-q).

Every quadrature sum is exact before its one rounding (`_fsum`, bit for
bit math.fsum's, with integer bins per power of two in numpy), so results
are deterministic and independent of evaluation order.  The sum is kept
here rather than shared, which keeps the oracle independent of the layers
it checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import eval_hermite

from .errors import AccuracyWarning, DomainError
from .model import (
    EnergyBreakdown,
    ModelParams,
    density,
    derive_frequencies,
    exact_energy,
    wavefunction,
)
from .mueller import KernelSpec, energy_parametric, kinetic_parametric
from .solver import solve_xi_p
from .spectral import (
    ParametricState,
    occupation_spectrum,
    one_matrix,
    parametric_state,
)

__all__ = [
    "ORACLE_LAMBDA_MAX",
    "QuadratureRule",
    "gauss_hermite_rule",
    "one_matrix_numeric",
    "hamiltonian_expectation_numeric",
    "spectral_kinetic_sum",
    "kernel_interaction_numeric",
    "brute_force_minimize",
    "run_verification",
]

#: Above this coupling the mapped-Gauss-Hermite convergence ratio degrades
#: towards 1 and the advertised tolerances no longer hold.
ORACLE_LAMBDA_MAX = 0.45

_DOUBLING_TOL = 1e-9
_REFERENCE_N_MAX = 170  # unnormalized Hermite values overflow soon after
_GAUSS_HERMITE_N_MAX = 370  # hermgauss weights are all 0 at 371 nodes, inf/NaN after
#: Points of the brute-force energy scan, and the bracket width at which its polish stops.
_SCAN_POINTS = 4096
_SCAN_XTOL = 1e-10
#: Relative band above the lowest vectorised scan energy that is rescored on the scalar path.
_SCAN_RESCORE = 1e-12


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and bare weights approximating a plain integral over the line."""

    nodes: np.ndarray
    weights: np.ndarray
    scale: float

    @property
    def count(self) -> int:
        return self.nodes.size


@lru_cache(maxsize=16)
def _hermgauss(count: int):
    t, w = np.polynomial.hermite.hermgauss(count)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


def gauss_hermite_rule(count: int = 96, scale: float = 1.0) -> QuadratureRule:
    """Gauss-Hermite rule mapped to integrands decaying like exp(-scale*x^2).

    Weights carry the exp(t^2) lift, assembled in log space to dodge
    intermediate underflow at large node counts.  Counts above 370 are
    refused: there numpy's hermgauss weights underflow to zero or overflow.
    """
    if count < 2:
        raise DomainError(f"need at least 2 nodes, got {count}")
    if count > _GAUSS_HERMITE_N_MAX:
        raise DomainError(
            f"Gauss-Hermite weights are finite and positive only up to "
            f"{_GAUSS_HERMITE_N_MAX} nodes, got {count}"
        )
    if not scale > 0.0:
        raise DomainError(f"scale must be positive, got {scale}")
    t, w = _hermgauss(count)
    root = math.sqrt(scale)
    nodes = t / root
    weights = np.exp(np.log(w) + t * t) / root
    return QuadratureRule(nodes, weights, scale)


def _doubled(rule: QuadratureRule) -> QuadratureRule:
    return gauss_hermite_rule(2 * rule.count, rule.scale)


#: Every finite double is k * 2**(e - 53) with frexp's exponent e in [-1073, 1024]
#: and an integer |k| < 2**53; bin e + 1073 takes the low 26 bits of k, bin
#: e + 1073 + 26 the rest, and bin b is worth 2**(b - _FSUM_SHIFT).
_FSUM_EXP_OFFSET = 1073
_FSUM_SHIFT = _FSUM_EXP_OFFSET + 53
_FSUM_BINS = _FSUM_EXP_OFFSET + 1024 + 1 + 26
#: Shorter arrays go to math.fsum, which is faster there.
_FSUM_CHUNK = 4096
#: Each bin adds up integers below 2**27 and stays exact below 2**53.
_FSUM_MAX_TERMS = 1 << 25
#: While the absolute values sum below this, no partial of math.fsum overflows.
_FSUM_SAFE_MASS = 2.0 ** 1022


def _fsum(values: np.ndarray) -> float:
    """Correctly rounded sum, bit for bit math.fsum's, chunk by chunk in numpy.

    The halves of every k are added up exactly in float bins, one per power
    of two; a Python integer then holds the exact sum and int true division
    rounds it once.  Arrays shorter than one chunk or of 2**25 terms or
    more, non-finite values, sums that could overflow and an exact zero
    (whose sign is math.fsum's to choose) go to math.fsum.
    """
    x = np.asarray(values, dtype=float).ravel()
    if not (_FSUM_CHUNK <= x.size < _FSUM_MAX_TERMS
            and float(max(x.max(), -x.min())) * x.size < _FSUM_SAFE_MASS):
        return math.fsum(x.tolist())
    bins = np.zeros(_FSUM_BINS)
    for start in range(0, x.size, _FSUM_CHUNK):
        m, e = np.frexp(x[start:start + _FSUM_CHUNK])
        k = np.ldexp(m, 53)
        high = np.trunc(np.ldexp(k, -26))
        e += _FSUM_EXP_OFFSET
        bins += np.bincount(e, k - np.ldexp(high, 26), _FSUM_BINS)
        bins += np.bincount(e + 26, high, _FSUM_BINS)
    used = np.flatnonzero(bins)
    total = sum(int(v) << b for b, v in zip(used.tolist(), bins[used].tolist()))
    return total / (1 << _FSUM_SHIFT) if total else math.fsum(x.tolist())


def quad_1d(rule: QuadratureRule, values: np.ndarray) -> float:
    """Compensated sum_i W_i f(x_i) for f sampled on the rule's nodes."""
    return _fsum(rule.weights * values)


def quad_2d(rule: QuadratureRule, values: np.ndarray) -> float:
    """Compensated tensor-product integral for f sampled on nodes x nodes."""
    w2 = np.outer(rule.weights, rule.weights)
    return _fsum(w2 * values)


def _check_oracle_window(params: ModelParams):
    if not 0.0 <= params.coupling <= ORACLE_LAMBDA_MAX:
        raise DomainError(
            f"quadrature oracle is validated for coupling in [0, {ORACLE_LAMBDA_MAX}], "
            f"got {params.coupling}"
        )


def reference_basis(n_max: int, omega: float, x) -> np.ndarray:
    """Orthonormal oscillator functions evaluated without the recurrence.

    Uses scipy's eval_hermite with the normalization applied through
    lgamma; independent of spectral.hermite_basis by construction.  Safe up
    to n_max = 170 before unnormalized Hermite values overflow.
    """
    if not 1 <= n_max <= _REFERENCE_N_MAX:
        raise DomainError(f"reference basis supports 1..{_REFERENCE_N_MAX} orbitals, got {n_max}")
    x = np.asarray(x, dtype=float)
    u = math.sqrt(omega) * x
    envelope = np.exp(-0.5 * u ** 2)
    out = np.empty((n_max,) + u.shape)
    for n in range(n_max):
        lognorm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)) - 0.25 * math.log(math.pi)
        out[n] = math.exp(lognorm) * eval_hermite(n, u) * envelope
    return omega ** 0.25 * out


def _warn_if_shifted(name: str, base, refined):
    shift = float(np.max(np.abs(refined - base)))
    if shift > _DOUBLING_TOL:
        warnings.warn(
            f"{name}: doubling the quadrature nodes moved the value by "
            f"{shift:.3e} (> {_DOUBLING_TOL:.0e})",
            AccuracyWarning,
            stacklevel=3,
        )


def one_matrix_numeric(
    params: ModelParams, x, xp, rule: QuadratureRule | None = None, check: bool = True,
):
    """One-matrix element as the contraction integral of the pair amplitude.

    Integrates psi(x, s) psi(xp, s) over the shared coordinate s, one exact
    quadrature sum per point; x and xp broadcast against each other, and a
    scalar pair gives a float.  With the default rule the per-axis decay
    scale is (omega1 + omega2)/2, the exact Gaussian content of the amplitude.
    """
    _check_oracle_window(params)
    f = derive_frequencies(params)
    if rule is None:
        rule = gauss_hermite_rule(96, 0.5 * (f.omega1 + f.omega2))
    xs = np.asarray(x, dtype=float)[..., None]
    xps = np.asarray(xp, dtype=float)[..., None]

    def value(grid: QuadratureRule):
        amp = wavefunction(params, xs, grid.nodes) * wavefunction(params, xps, grid.nodes)
        out = np.array([quad_1d(grid, row) for row in amp.reshape(-1, grid.count)])
        out = out.reshape(amp.shape[:-1])
        return float(out) if out.ndim == 0 else out

    base = value(rule)
    if check:
        _warn_if_shifted(f"one_matrix_numeric(x={x}, xp={xp})", base, value(_doubled(rule)))
    return base


def hamiltonian_expectation_numeric(
    params: ModelParams, rule: QuadratureRule | None = None, check: bool = True
) -> EnergyBreakdown:
    """Ground-state energy as a two-dimensional quadrature, term by term.

    The Laplacian acts analytically on the Gaussian amplitude (psi = N e^g
    with quadratic g, so psi'' = (g'^2 + g'') psi); only the integration is
    numerical.
    """
    _check_oracle_window(params)
    f = derive_frequencies(params)
    if rule is None:
        rule = gauss_hermite_rule(96, 0.5 * (f.omega1 + f.omega2))
    sum_w = 0.5 * (f.omega1 + f.omega2)
    diff_w = 0.5 * (f.omega1 - f.omega2)

    def breakdown(grid: QuadratureRule) -> EnergyBreakdown:
        x1 = grid.nodes[:, None]
        x2 = grid.nodes[None, :]
        psi2 = wavefunction(params, x1, x2) ** 2
        g1 = -sum_w * x1 - diff_w * x2
        g2 = -sum_w * x2 - diff_w * x1
        kin = -0.5 * (g1 ** 2 + g2 ** 2 - 2.0 * sum_w) * psi2
        ext = 0.5 * params.omega0 ** 2 * (x1 ** 2 + x2 ** 2) * psi2
        return EnergyBreakdown.from_terms(
            quad_2d(grid, kin), quad_2d(grid, ext), _interaction_on_grid(params, grid, psi2)
        )

    base = breakdown(rule)
    if check:
        _warn_if_shifted(
            "hamiltonian_expectation_numeric", base.total, breakdown(_doubled(rule)).total
        )
    return base


def spectral_kinetic_sum(xi_p: float, omega_p: float) -> float:
    """Two-particle kinetic energy summed orbital by orbital.

    Each orbital contributes the quadrature t_n of (phi_n')^2 / 2 on a
    96-node rule of scale omega_p.  Every derivative comes from the exact
    ladder relation sqrt(omega_p) (sqrt(n/2) phi_(n-1) - sqrt((n+1)/2)
    phi_(n+1)), all orbitals in one array; the occupation-weighted sum of
    2 t_n (one factor per particle) must land on the closed-form kinetic
    energy of the family.
    """
    spectrum = occupation_spectrum(xi_p)
    rule = gauss_hermite_rule(96, omega_p)
    basis = reference_basis(spectrum.truncation + 1, omega_p, rule.nodes)
    n = np.arange(spectrum.truncation, dtype=float)[:, None]
    dphi = -np.sqrt((n + 1.0) / 2.0) * basis[1:]
    dphi[1:] += np.sqrt(n[1:] / 2.0) * basis[:-2]
    dphi *= math.sqrt(omega_p)
    t = np.array([0.5 * quad_1d(rule, row ** 2) for row in dphi])
    return math.fsum(2.0 * spectrum.weights * t)


def _check_state_matches(spec: KernelSpec, state: ParametricState):
    if state.q != spec.q:
        raise DomainError(f"state power q={state.q} and the kernel's q={spec.q} differ")


def _kernel_on_grid(
    params: ModelParams, spec: KernelSpec, state: ParametricState, rule: QuadratureRule
) -> np.ndarray:
    _check_state_matches(spec, state)
    spectrum = occupation_spectrum(state.xi_p)
    n1 = density(params, rule.nodes)
    basis = reference_basis(spectrum.truncation, state.omega_p, rule.nodes)
    gq = np.einsum("ng,n,nh->gh", basis, spectrum.weights ** spec.q, basis)
    gr = np.einsum("ng,n,nh->gh", basis, spectrum.weights ** spec.r, basis)
    return 2.0 * np.outer(n1, n1) - gq * gr


def _interaction_on_grid(params: ModelParams, rule: QuadratureRule, kern: np.ndarray) -> float:
    x1 = rule.nodes[:, None]
    x2 = rule.nodes[None, :]
    return quad_2d(rule, kern * (-0.5 * params.coupling * params.omega0 ** 2 * (x1 - x2) ** 2))


def kernel_interaction_numeric(
    params: ModelParams,
    spec: KernelSpec,
    state: ParametricState,
    rule: QuadratureRule | None = None,
    check: bool = True,
) -> float:
    """Interaction energy as the plain double integral of kernel times potential.

    Integrates K_p(x1, x2) * (-coupling * omega0^2 (x1-x2)^2 / 2) on a
    tensor grid; the default per-axis scale omega_s matches the slowest
    factor (the direct density term).  The state's q must be the kernel's;
    otherwise DomainError.
    """
    _check_oracle_window(params)
    f = derive_frequencies(params)
    if rule is None:
        rule = gauss_hermite_rule(96, f.omega_s)

    def value(grid: QuadratureRule) -> float:
        return _interaction_on_grid(params, grid, _kernel_on_grid(params, spec, state, grid))

    base = value(rule)
    if check:
        _warn_if_shifted("kernel_interaction_numeric", base, value(_doubled(rule)))
    return base


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


def _golden_section(f, a, b):
    """Minimize a unimodal scalar function on [a, b] by golden-section search.

    Returns (x, f(x)) once the bracket is narrower than _SCAN_XTOL;
    derivative-free, with linear convergence of ratio 1/phi.
    """
    h = b - a
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    fc, fd = f(c), f(d)
    while h > _SCAN_XTOL:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def brute_force_minimize(params: ModelParams, spec: KernelSpec) -> tuple[float, float]:
    """Minimize the parametric energy by dense scan plus golden-section polish.

    Scores 4096 points of [0, 0.999] in one array call of `energy_parametric`
    and rescores those within 1e-12 relative of the lowest on scalar calls,
    so that an ulp of numpy's pow against libm's cannot move the pick off
    the scalar scan's.  The pick's neighbours are then polished on
    `energy_parametric` to a 1e-10 bracket.  Knows nothing about
    stationarity conditions or bracketing; serves as the independent route
    to the variational minimum.  Returns (xi_p, energy).
    """
    xs = np.linspace(0.0, 0.999, _SCAN_POINTS)

    def objective(x: float) -> float:
        return energy_parametric(params, spec, float(x)).total

    energies = energy_parametric(params, spec, xs).total
    lowest = energies.min()
    near = np.flatnonzero(energies <= lowest + _SCAN_RESCORE * abs(lowest))
    i = int(min(near, key=lambda j: objective(xs[j])))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, _SCAN_POINTS - 1)]
    x_min, e_min = _golden_section(objective, float(lo), float(hi))
    return float(x_min), float(e_min)


def _entry(name: str, value: float, reference: float, tolerance: float, relative: bool) -> dict:
    error = abs(value - reference)
    if relative:
        error /= max(abs(reference), 1e-300)
    return {
        "check": name,
        "value": value,
        "reference": reference,
        "error": error,
        "tolerance": tolerance,
        "pass": bool(error <= tolerance),
    }


def run_verification(
    omega0: float = 1.0,
    lambdas=(0.1, 0.3),
    qs=(0.5, 0.4),
    tamper: bool = False,
) -> list[dict]:
    """Cross-check closed forms against quadrature; one dict per check.

    Checks cover amplitude and density normalization, the one-matrix trace
    and a pointwise lattice comparison, the energy and virial balance, the
    orbital-resolved kinetic sum, kernel mass and interaction integrals
    (both from one kernel grid on the 96-node rule of scale omega_s),
    root-versus-scan minima, and node-doubling stability.  Interaction
    comparisons run at 1e-7 relative, loosened to 1e-6 for couplings at or
    beyond 0.449 where the quadrature ratio degrades.  Absolute energy
    tolerances are in units of omega0, and the one-matrix lattice spans
    [-3, 3] trap lengths 1/sqrt(omega0) at a tolerance in units of
    sqrt(omega0), so every check reads the same at every omega0.  A
    coupling outside [0, ORACLE_LAMBDA_MAX] raises DomainError before its
    quadrature runs.

    tamper=True skews the closed-form references by 2e-4 and is only there
    to prove the harness can fail (negative control).  A repeated coupling or
    exponent is checked once, in first-seen order, so check names stay unique;
    two distinct ones whose tags (6 significant digits) coincide raise
    DomainError before any quadrature runs.
    """
    skew = 1.0 + 2e-4 if tamper else 1.0
    lambdas, qs = list(dict.fromkeys(lambdas)), list(dict.fromkeys(qs))
    for name, values in (("lam", lambdas), ("q", qs)):
        tags = [f"{name}={v:g}" for v in values]
        if len(set(tags)) < len(tags):
            raise DomainError(f"the distinct values {values} print as the check-name tags {tags}")
    checks: list[dict] = []
    for lam in lambdas:
        params = ModelParams(omega0=omega0, coupling=float(lam))
        _check_oracle_window(params)
        root_omega0 = math.sqrt(omega0)
        f = derive_frequencies(params)
        tag = f"lam={lam:g}"
        psi_rule = gauss_hermite_rule(96, 0.5 * (f.omega1 + f.omega2))
        dens_rule = gauss_hermite_rule(96, f.omega_s)

        x1 = psi_rule.nodes[:, None]
        x2 = psi_rule.nodes[None, :]
        checks.append(_entry(
            f"psi_norm[{tag}]",
            quad_2d(psi_rule, wavefunction(params, x1, x2) ** 2),
            1.0, 1e-9, relative=False,
        ))
        checks.append(_entry(
            f"density_norm[{tag}]",
            quad_1d(dens_rule, density(params, dens_rule.nodes)),
            1.0, 1e-9, relative=False,
        ))

        spectrum = occupation_spectrum(f.xi)
        diag = one_matrix(spectrum, f.omega_bar, 1.0, dens_rule.nodes, dens_rule.nodes)
        checks.append(_entry(
            f"one_matrix_trace[{tag}]", quad_1d(dens_rule, diag), 1.0, 1e-9, relative=False,
        ))

        lattice = np.linspace(-3.0, 3.0, 7) / root_omega0
        x, xp = lattice[:, None], lattice[None, :]
        series = one_matrix(spectrum, f.omega_bar, 1.0, x, xp)
        integral = one_matrix_numeric(params, x, xp, check=False)
        checks.append(_entry(
            f"one_matrix_lattice[{tag}]", float(np.max(np.abs(series - integral))), 0.0,
            1e-8 * root_omega0, relative=False,
        ))

        numeric = hamiltonian_expectation_numeric(params, check=False)
        closed = exact_energy(params)
        checks.append(_entry(
            f"hamiltonian_total[{tag}]", numeric.total, closed.total * skew, 1e-8, relative=True,
        ))
        checks.append(_entry(
            f"virial_balance[{tag}]",
            numeric.kinetic, numeric.external + numeric.interaction, 1e-7 * omega0,
            relative=False,
        ))
        refined = hamiltonian_expectation_numeric(params, rule=_doubled(psi_rule), check=False)
        checks.append(_entry(
            f"node_doubling_hamiltonian[{tag}]",
            numeric.total, refined.total, _DOUBLING_TOL * omega0, relative=False,
        ))

        for xi_p in (0.0, 0.1, 0.3):
            omega_p = f.omega_s * (1.0 + xi_p) / (1.0 - xi_p)
            checks.append(_entry(
                f"kinetic_sum[{tag},xi_p={xi_p:g}]",
                spectral_kinetic_sum(xi_p, omega_p),
                kinetic_parametric(f.omega_s, xi_p),
                1e-10, relative=True,
            ))

        fine_dens_rule = _doubled(dens_rule)
        for q in qs:
            spec = KernelSpec.sum_one(float(q))
            sol = solve_xi_p(params, float(q))
            state = parametric_state(f.omega_s, float(q), sol.xi_p)
            qtag = f"{tag},q={q:g}"
            inter_tol = 1e-6 if lam >= 0.449 else 1e-7
            closed_inter = energy_parametric(params, spec, sol.xi_p).interaction * skew
            kern = _kernel_on_grid(params, spec, state, dens_rule)
            numeric_inter = _interaction_on_grid(params, dens_rule, kern)
            checks.append(_entry(
                f"kernel_interaction[{qtag}]", numeric_inter, closed_inter,
                inter_tol, relative=True,
            ))
            refined_inter = kernel_interaction_numeric(
                params, spec, state, rule=fine_dens_rule, check=False
            )
            checks.append(_entry(
                f"node_doubling_kernel[{qtag}]",
                numeric_inter, refined_inter, _DOUBLING_TOL * omega0, relative=False,
            ))
            checks.append(_entry(
                f"kernel_mass[{qtag}]", quad_2d(dens_rule, kern), 1.0, 1e-9, relative=False,
            ))
            scan_xi, _ = brute_force_minimize(params, spec)
            checks.append(_entry(
                f"scan_vs_root[{qtag}]", scan_xi, sol.xi_p, 1e-6, relative=False,
            ))
    return checks
