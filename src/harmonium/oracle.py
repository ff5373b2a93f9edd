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

Every quadrature sum is exact before its one rounding, bit for bit
math.fsum's, so results are deterministic and independent of evaluation
order: one level of error-free extraction in numpy and a float sum of
its exact residuals, certified by one shared step (`_certified`) or else
handed to math.fsum.  `_fsum` takes a long array, `_fsum_rows` every row
of a 2-D array at once.  Integrands symmetric in (x1, x2) bit for bit
(psi^2 and the energy terms) are sampled on the node pairs i <= j only
(`quad_pairs`), which sums the same exact terms as the full grid.  The
pair kernel is not such an integrand: its gamma powers come from BLAS
matrix products, so it stays on the full grid.  The sums are kept here
rather than shared, which keeps the oracle independent of the layers it
checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
from .solver import _check_q, solve_batch
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

#: Largest move under doubled nodes, in units of omega0 (energies) or sqrt(omega0) (one-matrix).
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

    @cached_property
    def weights_2d(self) -> np.ndarray:
        return np.outer(self.weights, self.weights)

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x_i, x_j and W_i W_j over the node pairs i <= j, the diagonal first."""
        i, j = _pair_indices(self.count)
        return self.nodes[i], self.nodes[j], self.weights[i] * self.weights[j]


@lru_cache(maxsize=16)
def _hermgauss(count: int):
    t, w = np.polynomial.hermite.hermgauss(count)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@lru_cache(maxsize=16)
def _pair_indices(count: int):
    diagonal = np.arange(count)
    i, j = np.triu_indices(count, 1)
    i, j = np.concatenate([diagonal, i]), np.concatenate([diagonal, j])
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


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


#: Shorter arrays go to math.fsum, which is faster there.
_FSUM_CHUNK = 4096
#: Terms per pass of the extraction, sized to stay in cache.
_FSUM_STEP = 8192
#: While the absolute values sum below this, no partial of math.fsum overflows.
_FSUM_SAFE_MASS = 2.0 ** 1022
#: Fewer rows go to math.fsum one by one, which is faster there at 96 terms a row.
_FSUM_ROWS = 12


def _certified(level0, level1, slack):
    """hi = level0 + level1 rounded, and whether hi is the correctly rounded sum.

    With the true sum within `slack` of level0 + level1 = hi + lo (TwoSum,
    exact), the sum rounds to hi when lo + slack is below half the gap up
    to the next double and slack - lo below half the gap down to the one
    before.  An exact zero is never certified: its sign is math.fsum's to
    choose.  Scalars or arrays.
    """
    hi = level0 + level1
    b = hi - level0
    lo = (level0 - (hi - b)) + (level1 - b)
    up = np.nextafter(hi, math.inf) - hi
    down = hi - np.nextafter(hi, -math.inf)
    return hi, (2.0 * (slack + lo) < up) & (2.0 * (slack - lo) < down) & (hi != 0.0)


def _fsum(values: np.ndarray) -> float:
    """Correctly rounded sum, bit for bit math.fsum's, by error-free extraction in numpy.

    With 2**e > max|x|, 2**m >= n + 2 and sigma0 = 2**(e + m), q0 = (x +
    sigma0) - sigma0 and r = x - q0 are exact, the q0 sum exactly in any
    order, and |r| <= 2**(e + m - 53) (Rump, Ogita and Oishi, SIAM J. Sci.
    Comput. 31(1), 2008).  The float sum of the r is then off by at most
    gamma_(n-1) n 2**(e + m - 53) < n 2**(e + 2m - 106) in any order, and
    `_certified` settles the rounding from the two level sums with that
    slack.  Arrays shorter than one chunk, non-finite values, sums that
    could overflow or need sigma0 = 2**1024, an exact zero and sums too
    near a rounding boundary go to math.fsum.
    """
    x = np.asarray(values, dtype=float).ravel()
    n = x.size
    top = float(max(x.max(), -x.min())) if n >= _FSUM_CHUNK else math.inf
    e, m = math.frexp(top)[1], (n + 1).bit_length()
    if not (top * n < _FSUM_SAFE_MASS and e + m < 1024):
        return math.fsum(x.tolist())
    sigma0 = math.ldexp(1.0, e + m)
    level0 = level1 = 0.0
    buf = np.empty(min(n, _FSUM_STEP))
    for start in range(0, n, _FSUM_STEP):
        chunk = x[start:start + _FSUM_STEP]
        q = buf[:chunk.size]
        np.add(chunk, sigma0, out=q)
        q -= sigma0
        level0 += q.sum()
        np.subtract(chunk, q, out=q)
        level1 += q.sum()
    hi, ok = _certified(level0, level1, math.ldexp(n, e + 2 * m - 106))
    return float(hi) if ok else math.fsum(x.tolist())


def _fsum_rows(x: np.ndarray) -> np.ndarray:
    """`_fsum` of every row of a 2-D array at once, each row on its own sigma0.

    Rows the certificate does not settle, non-finite ones and those that
    could overflow among them, go to math.fsum one by one, as do all rows
    of an array with fewer than `_FSUM_ROWS`.
    """
    if len(x) < _FSUM_ROWS:
        return np.array([math.fsum(row) for row in x.tolist()])
    n = x.shape[1]
    m = (n + 1).bit_length()
    with np.errstate(invalid="ignore", over="ignore"):
        top = np.maximum(x.max(axis=1), -x.min(axis=1))
        e = np.frexp(top)[1]
        safe = (top * n < _FSUM_SAFE_MASS) & (e + m < 1024)
        e[~safe] = 0
        sigma0 = np.ldexp(1.0, e + m)[:, None]
        q = x + sigma0
        q -= sigma0
        level0 = q.sum(axis=1)
        np.subtract(x, q, out=q)
        sums, ok = _certified(level0, q.sum(axis=1), np.ldexp(float(n), e + 2 * m - 106))
    for i in np.flatnonzero(~(ok & safe)):
        sums[i] = math.fsum(x[i].tolist())
    return sums


def quad_1d(rule: QuadratureRule, values: np.ndarray):
    """Exact sums of W_i f(x_i) over the last axis: a float for one row, else an array."""
    terms = rule.weights * values
    sums = _fsum_rows(terms.reshape(-1, rule.count))
    return float(sums[0]) if terms.ndim == 1 else sums.reshape(terms.shape[:-1])


def quad_2d(rule: QuadratureRule, values: np.ndarray) -> float:
    """Exact tensor-product integral for f sampled on nodes x nodes."""
    return _fsum(rule.weights_2d * values)


def quad_pairs(rule: QuadratureRule, values: np.ndarray) -> float:
    """`quad_2d` of a symmetric f sampled on `rule.pairs`, from half the terms.

    When f(x_i, x_j) == f(x_j, x_i) bit for bit, the full grid holds each
    diagonal term once and each other term twice.  Doubling a rounded term
    is exact short of overflow, so the exact terms, and the one rounding of
    their sum, are quad_2d's.
    """
    terms = rule.pairs[2] * values
    terms[rule.count:] *= 2.0
    return _fsum(terms)


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
    norms = [math.exp(-0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)) - 0.25 * math.log(math.pi))
             for n in range(n_max)]
    n = np.arange(n_max).reshape((-1,) + (1,) * u.ndim)
    return omega ** 0.25 * (np.reshape(norms, n.shape) * eval_hermite(n, u) * envelope)


def _warn_if_shifted(name: str, base, refined, unit: float):
    """Warn when doubling the nodes moved the value by more than _DOUBLING_TOL of its unit."""
    shift = float(np.max(np.abs(refined - base)))
    if shift > _DOUBLING_TOL * unit:
        warnings.warn(
            f"{name}: doubling the quadrature nodes moved the value by "
            f"{shift:.3e} (> {_DOUBLING_TOL * unit:.2g})",
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
        nodes = grid.nodes
        return quad_1d(grid, wavefunction(params, xs, nodes) * wavefunction(params, xps, nodes))

    base = value(rule)
    if check:
        _warn_if_shifted(f"one_matrix_numeric(x={x}, xp={xp})", base, value(_doubled(rule)),
                         math.sqrt(params.omega0))
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

    base = _energy_on_pairs(params, rule)
    if check:
        _warn_if_shifted("hamiltonian_expectation_numeric", base.total,
                         _energy_on_pairs(params, _doubled(rule)).total, params.omega0)
    return base


def _energy_on_pairs(params: ModelParams, rule: QuadratureRule, psi2=None) -> EnergyBreakdown:
    """`hamiltonian_expectation_numeric` on `rule`, from psi^2 on its pairs if given."""
    f = derive_frequencies(params)
    sum_w = 0.5 * (f.omega1 + f.omega2)
    diff_w = 0.5 * (f.omega1 - f.omega2)
    x1, x2, _ = rule.pairs
    psi2 = wavefunction(params, x1, x2) ** 2 if psi2 is None else psi2
    g1 = -sum_w * x1 - diff_w * x2
    g2 = -sum_w * x2 - diff_w * x1
    kin = -0.5 * (g1 ** 2 + g2 ** 2 - 2.0 * sum_w) * psi2
    ext = 0.5 * params.omega0 ** 2 * (x1 ** 2 + x2 ** 2) * psi2
    return EnergyBreakdown.from_terms(
        quad_pairs(rule, kin),
        quad_pairs(rule, ext),
        quad_pairs(rule, psi2 * _pair_potential(params, x1, x2)),
    )


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
    t = 0.5 * quad_1d(rule, dphi ** 2)
    return math.fsum(2.0 * spectrum.weights * t)


def _kernel_on_grid(
    params: ModelParams, spec: KernelSpec, state: ParametricState, rule: QuadratureRule
) -> np.ndarray:
    if state.q != spec.q:
        raise DomainError(f"state power q={state.q} and the kernel's q={spec.q} differ")
    spectrum = occupation_spectrum(state.xi_p)
    n1 = density(params, rule.nodes)
    basis = reference_basis(spectrum.truncation, state.omega_p, rule.nodes)
    gq = (basis * (spectrum.weights ** spec.q)[:, None]).T @ basis
    gr = (basis * (spectrum.weights ** spec.r)[:, None]).T @ basis
    return 2.0 * np.outer(n1, n1) - gq * gr


def _pair_potential(params: ModelParams, x1, x2):
    return -0.5 * params.coupling * params.omega0 ** 2 * (x1 - x2) ** 2


def _interaction_on_grid(params: ModelParams, rule: QuadratureRule, kern: np.ndarray) -> float:
    return quad_2d(rule, kern * _pair_potential(params, rule.nodes[:, None], rule.nodes[None, :]))


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
        _warn_if_shifted("kernel_interaction_numeric", base, value(_doubled(rule)), params.omega0)
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
    comparisons run at 1e-7 relative at every coupling.  Absolute energy
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

        psi2 = wavefunction(params, *psi_rule.pairs[:2]) ** 2
        checks.append(_entry(
            f"psi_norm[{tag}]", quad_pairs(psi_rule, psi2), 1.0, 1e-9, relative=False,
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

        numeric = _energy_on_pairs(params, psi_rule, psi2)
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
        specs = []
        for q in qs:  # each q's kernel, then its window: the first bad q names its error
            specs.append(KernelSpec.sum_one(float(q)))
            _check_q(float(q))
        roots = solve_batch([spec.q for spec in specs], (params.coupling,))
        for i, (q, spec) in enumerate(zip(qs, specs)):
            sol = roots.solution(i)
            state = parametric_state(f.omega_s, float(q), sol.xi_p)
            qtag = f"{tag},q={q:g}"
            closed_inter = energy_parametric(params, spec, sol.xi_p).interaction * skew
            kern = _kernel_on_grid(params, spec, state, dens_rule)
            numeric_inter = _interaction_on_grid(params, dens_rule, kern)
            checks.append(_entry(
                f"kernel_interaction[{qtag}]", numeric_inter, closed_inter, 1e-7, relative=True,
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
