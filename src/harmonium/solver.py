"""Stationary points of the parametric energy and derived sweep products.

Setting the xi_p derivative of the sum_one energy to zero and dividing out
the confinement scale turns the optimality condition into

    lhs(q, xi_p) = coupling * (omega0 / (2 omega_s))^2 = rhs

with

    lhs(q, xi) = xi^q / (q (xi^(2q-1) - xi) + (1-q)(1 - xi^(2q)))
                 * ((1+xi)/(1-xi))^3.

At q = 1/2 the condition collapses to sqrt(xi)/(1-xi) ((1+xi)/(1-xi))^3 =
rhs, whose solution is the exact correlation parameter xi(coupling); the
identity rhs = sqrt(xi)(1+xi)^3/(1-xi)^4 at xi = xi(coupling) holds for
every coupling in the stability window.

The solver works in log space, because for small coupling the root scales
like a power of the coupling (xi_p ~ coupling^(1/max(q, 1-q)) for q != 1/2,
~ coupling^2/16 at q = 1/2) and absolute-width steps would lose all
relative accuracy.  `solve_batch` takes one q and a batch of couplings: lhs
is evaluated once on a logarithmic scan grid, checked to be strictly
increasing there, and each row is bracketed by a binary search in the scan
(or by a decade walk below it).  All rows then advance together by Newton
steps on log xi_p, using the analytic d log lhs / d log xi_p and falling
back to the geometric midpoint whenever a step would leave the bracket,
until each sign-change bracket is narrower than tol relative.  `solve_xi_p`
is a batch of one on the same path, and `sweep`, `scaling_exponent` and the
CLI make one `solve_batch` call per q.

The ratio crossing xi_p = xi needs no solve: as q = 1/2 recovers the exact
xi, `find_crossing` takes the root of lhs(q, xi) = lhs(1/2, xi) by the same
Newton steps and maps it to a coupling in closed form.  `entropy_comparison`
sets the linear entropy of one solved spectrum against the exact one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import dual_coupling, linear_entropy, purity
from .errors import BracketError, DomainError, NoCrossingError
from .model import LAMBDA_MAX, ModelParams, derive_frequencies, exact_energy
from .mueller import KernelSpec, energy_parametric

__all__ = [
    "Q_MIN",
    "Q_MAX",
    "StationaritySolution",
    "BatchSolution",
    "SweepRecord",
    "stationarity_lhs",
    "stationarity_rhs",
    "solve_batch",
    "solve_xi_p",
    "sweep",
    "EntropyComparison",
    "entropy_comparison",
    "find_crossing",
    "scaling_exponent",
]

#: Exponent window in which the root bracketing below is validated.
Q_MIN = 0.3
Q_MAX = 0.7

#: Logarithmic grid on which every batch brackets its roots.
_SCAN = np.geomspace(1e-12, 1.0 - 1e-9, 2048)
_SCAN.flags.writeable = False
#: Lowest xi_p the decade walk below the scan window tries.
_WALK_FLOOR = 1e-290
_MAX_STEPS = 200
_TOL_FLOOR = 1e-15
#: Couplings whose exact xi bracket the ratio crossing.
_CROSSING_COUPLINGS = (1e-3, LAMBDA_MAX)


@dataclass(frozen=True)
class StationaritySolution:
    """Root of the stationarity condition for one (coupling, q) pair."""

    coupling: float
    q: float
    xi_p: float
    rhs: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class SweepRecord:
    """One (q, coupling) point of a sweep; numeric fields are NaN on error."""

    q: float
    coupling: float
    xi: float
    xi_p: float
    ratio: float
    e_p_total: float
    e_ex_total: float
    purity: float
    linear_entropy: float
    linear_entropy_exact: float
    dual_coupling: float
    dual_linear_entropy: float
    error: str | None = None


def _check_q(q: float):
    if not (Q_MIN <= q <= Q_MAX):
        raise DomainError(f"exponent q must lie in [{Q_MIN}, {Q_MAX}], got {q}")


def _check_tol(tol: float):
    if tol < _TOL_FLOOR:
        raise DomainError(f"tol below {_TOL_FLOOR} exceeds double precision, got {tol}")


def stationarity_lhs(q: float, xi_p):
    """Left side of the optimality condition; accepts scalar or array xi_p.

    Defined on the open interval (0, 1); vanishes like xi_p^min(q, 1-q) as
    xi_p -> 0 and diverges at the upper end.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    xi = np.asarray(xi_p, dtype=float)
    if np.any(xi <= 0.0) or np.any(xi >= 1.0):
        raise DomainError("stationarity_lhs needs xi_p strictly inside (0, 1)")
    den = q * (xi ** (2.0 * q - 1.0) - xi) + (1.0 - q) * (1.0 - xi ** (2.0 * q))
    out = xi ** q / den * ((1.0 + xi) / (1.0 - xi)) ** 3
    return float(out) if out.ndim == 0 else out


def stationarity_rhs(params: ModelParams) -> float:
    """Right side coupling * (omega0 / (2 omega_s))^2 of the optimality condition."""
    if not (0.0 <= params.coupling <= LAMBDA_MAX):
        raise DomainError(
            f"stationarity condition is defined for coupling in [0, {LAMBDA_MAX}], "
            f"got {params.coupling}"
        )
    f = derive_frequencies(params)
    return params.coupling * (params.omega0 / (2.0 * f.omega_s)) ** 2


def _dlog_lhs(q: float, xi):
    """d log lhs / d log xi for scalar or array xi, the slope of the Newton steps."""
    a = xi ** (2.0 * q - 1.0)
    b = xi ** (2.0 * q)
    den = q * (a - xi) + (1.0 - q) * (1.0 - b)
    xi_dden = q * ((2.0 * q - 1.0) * a - xi) - 2.0 * q * (1.0 - q) * b
    return q - xi_dden / den + 6.0 * xi / (1.0 - xi * xi)


@dataclass(frozen=True, eq=False)
class BatchSolution:
    """Roots of the stationarity condition at one q, one row per coupling.

    A failed row keeps its DomainError or BracketError in `errors` and NaN
    in `xi_p` and `residual`; `solution(i)` re-raises it.
    """

    q: float
    couplings: tuple[float, ...]
    rhs: np.ndarray
    xi_p: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    errors: tuple[Exception | None, ...]

    def solution(self, i: int) -> StationaritySolution:
        """Row i as a StationaritySolution; raises the row's error if it failed."""
        error = self.errors[i]
        if error is not None:
            # rows can share one exception object; each raise starts a fresh traceback
            raise error.with_traceback(None)
        return StationaritySolution(
            self.couplings[i], self.q, float(self.xi_p[i]), float(self.rhs[i]),
            int(self.iterations[i]), float(self.residual[i]),
        )


def solve_batch(q: float, couplings, omega0: float = 1.0, tol: float = 1e-15) -> BatchSolution:
    """Solve the stationarity condition at exponent q for every coupling at once.

    tol is the relative width of the sign-change bracket at which a row
    stops; the residual of every root stays below ~1e-13 * max(1, rhs)
    across the validated window.  coupling = 0 gives xi_p = 0.  Rows fail
    one by one: a coupling outside [0, LAMBDA_MAX] or a missing sign change
    sets only that row's error, while an exponent outside [Q_MIN, Q_MAX], a
    tol below 1e-15 or a scan that is not strictly increasing fails every
    row.
    """
    return _solve(q, couplings, omega0, tol)


def solve_xi_p(params: ModelParams, q: float, tol: float = 1e-15) -> StationaritySolution:
    """Solve the stationarity condition for xi_p at exponent q.

    A batch of one on the same path as `solve_batch`: tol is the relative
    width of the final sign-change bracket, and the row's error is raised.
    """
    return _solve(q, (params.coupling,), params.omega0, tol).solution(0)


def _solve(q: float, couplings, omega0: float, tol: float) -> BatchSolution:
    # The body of solve_batch.  solve_xi_p calls it directly, so that the lhs
    # evaluations of a single solve are direct children of solve_xi_p in a
    # trace that wraps the public functions (benchmark/tracing.py).
    lams = tuple(float(lam) for lam in couplings)
    n = len(lams)
    rhs = np.full(n, math.nan)
    xi_p = np.full(n, math.nan)
    residual = np.full(n, math.nan)
    iterations = np.zeros(n, dtype=int)
    errors: list[Exception | None] = [None] * n

    def done() -> BatchSolution:
        return BatchSolution(q, lams, rhs, xi_p, iterations, residual, tuple(errors))

    try:
        _check_q(q)
        _check_tol(tol)
    except DomainError as exc:
        errors = [exc] * n
        return done()
    for i, lam in enumerate(lams):
        try:
            rhs[i] = stationarity_rhs(ModelParams(omega0, lam))
        except DomainError as exc:
            errors[i] = exc
        else:
            if lam == 0.0:
                xi_p[i] = residual[i] = 0.0
    rows = np.array([i for i in range(n) if errors[i] is None and lams[i] != 0.0], dtype=int)
    if not rows.size:
        return done()

    grid = _SCAN
    scan = stationarity_lhs(q, grid)
    if not np.all(np.diff(scan) > 0.0):
        exc = BracketError(
            f"the stationarity condition is not increasing on the scan window at q={q}, "
            "so its sign change need not be unique"
        )
        for i in rows:
            errors[i] = exc
        return done()

    # Bracket [lo, hi] with lhs(lo) = llo <= rhs < lhs(hi) = lhi: a binary
    # search in the scan, or a decade walk for roots below the scan window.
    k = np.searchsorted(scan, rhs[rows])
    for i in rows[k == grid.size]:
        errors[i] = BracketError(
            f"no sign change of the stationarity condition in "
            f"[{grid[0]}, {grid[-1]}] at (coupling={lams[i]}, q={q})"
        )
    keep = k < grid.size
    rows, k = rows[keep], k[keep]
    hit = scan[k] == rhs[rows]
    xi_p[rows[hit]] = grid[k[hit]]
    residual[rows[hit]] = 0.0
    rows, k = rows[~hit], k[~hit]
    r = rhs[rows]
    hi, lhi = grid[k], scan[k]
    lo, llo = grid[np.maximum(k - 1, 0)], scan[np.maximum(k - 1, 0)]
    walk = np.nonzero(k == 0)[0]
    if walk.size:
        lo[walk] = hi[walk] / 10.0
        llo[walk] = stationarity_lhs(q, lo[walk])
        down = walk[(llo[walk] > r[walk]) & (lo[walk] > _WALK_FLOOR)]
        while down.size:
            hi[down], lhi[down] = lo[down], llo[down]
            lo[down] /= 10.0
            llo[down] = stationarity_lhs(q, lo[down])
            down = down[(llo[down] > r[down]) & (lo[down] > _WALK_FLOOR)]
        for j in walk[llo[walk] > r[walk]]:
            errors[rows[j]] = BracketError(
                f"no sign change of the stationarity condition down to xi_p = {_WALK_FLOOR} "
                f"at (coupling={lams[rows[j]]}, q={q})"
            )
    keep = llo <= r
    rows, r, lo, hi, llo, lhi = rows[keep], r[keep], lo[keep], hi[keep], llo[keep], lhi[keep]
    hi[llo == r] = lo[llo == r]  # the walk hit the root exactly: a bracket of width 0

    # Newton steps on log xi from a log-log interpolation inside the bracket;
    # a point that leaves the bracket falls back to the geometric midpoint.
    # Each point is pushed tol/4 further toward the root, so that once the
    # Newton point has converged the next one lands across the root and
    # closes the bracket.
    steps = np.zeros(rows.size, dtype=int)
    x = lo * (hi / lo) ** (np.log(r / llo) / np.log(lhi / llo))
    nudge = 0.25 * tol
    active = np.nonzero(hi - lo > tol * lo)[0]
    for _ in range(_MAX_STEPS):
        if not active.size:
            break
        xa, ra, lo_a, hi_a = x[active], r[active], lo[active], hi[active]
        outside = ~((lo_a < xa) & (xa < hi_a))
        xa[outside] = np.sqrt(lo_a[outside] * hi_a[outside])
        fa = stationarity_lhs(q, xa)
        steps[active] += 1
        up = fa < ra
        lo[active[up]] = xa[up]
        hi[active[~up]] = xa[~up]
        lo[active[fa == ra]] = xa[fa == ra]
        x[active] = xa * np.exp(np.log(ra / fa) / _dlog_lhs(q, xa)) * np.where(
            up, 1.0 + nudge, 1.0 - nudge
        )
        active = active[hi[active] - lo[active] > tol * lo[active]]
    root = 0.5 * (lo + hi)
    xi_p[rows] = root
    iterations[rows] = steps
    residual[rows] = np.abs(stationarity_lhs(q, root) - r)
    return done()


def _sweep_record(omega0: float, batch: BatchSolution, i: int) -> SweepRecord:
    nan = float("nan")
    q, lam = batch.q, batch.couplings[i]
    try:
        params = ModelParams(omega0=omega0, coupling=lam)
        f = derive_frequencies(params)
        sol = batch.solution(i)
        e_p = energy_parametric(params, KernelSpec.sum_one(q), sol.xi_p)
        e_ex = exact_energy(params)
        ratio = sol.xi_p / f.xi if f.xi > 0.0 else nan
        if 0.0 < lam < 0.5:
            lam_dual = dual_coupling(lam)
            l_dual = linear_entropy(derive_frequencies(ModelParams(omega0, lam_dual)).xi)
        else:
            lam_dual = nan
            l_dual = nan
        return SweepRecord(
            q=q,
            coupling=lam,
            xi=f.xi,
            xi_p=sol.xi_p,
            ratio=ratio,
            e_p_total=e_p.total,
            e_ex_total=e_ex.total,
            purity=purity(sol.xi_p),
            linear_entropy=linear_entropy(sol.xi_p),
            linear_entropy_exact=linear_entropy(f.xi),
            dual_coupling=lam_dual,
            dual_linear_entropy=l_dual,
        )
    except (DomainError, BracketError) as exc:
        return SweepRecord(
            q=q, coupling=lam, xi=nan, xi_p=nan, ratio=nan, e_p_total=nan,
            e_ex_total=nan, purity=nan, linear_entropy=nan,
            linear_entropy_exact=nan, dual_coupling=nan, dual_linear_entropy=nan,
            error=str(exc),
        )


def sweep(
    params_base: ModelParams,
    q_list,
    lambda_grid,
    root_tol: float = 1e-15,
) -> list[SweepRecord]:
    """Solve every (q, coupling) pair and collect records, q-major then
    coupling-minor, both ascending.

    Each q is one `solve_batch` call over the whole grid.  Per-point
    failures land in the record's error field instead of raising.
    """
    qs = sorted(set(float(q) for q in q_list))
    lams = sorted(set(float(lam) for lam in lambda_grid))
    records = []
    for q in qs:
        batch = solve_batch(q, lams, params_base.omega0, root_tol)
        records.extend(_sweep_record(params_base.omega0, batch, i) for i in range(len(lams)))
    return records


@dataclass(frozen=True)
class EntropyComparison:
    """Linear entropies of the variational and exact spectra at one (coupling, q)."""

    coupling: float
    q: float
    l_parametric: float
    l_exact: float
    ordering: int


def entropy_comparison(params: ModelParams, q: float, root_tol: float = 1e-15) -> EntropyComparison:
    """Compare the variational linear entropy against the exact one.

    ordering is sign(l_parametric - l_exact) with ties (|difference| below
    1e-12) reported as 0; solver failures propagate.
    """
    f = derive_frequencies(params)
    sol = solve_xi_p(params, q, tol=root_tol)
    l_par = linear_entropy(sol.xi_p)
    l_ex = linear_entropy(f.xi)
    diff = l_par - l_ex
    ordering = 0 if abs(diff) <= 1e-12 else (1 if diff > 0.0 else -1)
    return EntropyComparison(
        coupling=params.coupling, q=q, l_parametric=l_par, l_exact=l_ex, ordering=ordering
    )


def _crossing_gap(q: float, xi: float) -> float:
    """log lhs(q, xi) - log lhs(1/2, xi), written as -log(cosh t + 2 d b sinh t)
    with d = q - 1/2, t = d log xi and b = (1+xi)/(1-xi): both terms of
    cosh t - 1 + 2 d b sinh t are O(d^2), so the gap stays accurate as q -> 1/2,
    where the direct difference of the logs loses digits like 1/d^2."""
    d = q - 0.5
    t = d * math.log(xi)
    b = (1.0 + xi) / (1.0 - xi)
    return -math.log1p(2.0 * math.sinh(0.5 * t) ** 2 + 2.0 * d * b * math.sinh(t))


def find_crossing(params_base: ModelParams, q: float, root_tol: float = 1e-15) -> float:
    """Coupling at which the ratio xi_p/xi crosses 1 for the given exponent.

    q = 1/2 recovers the exact xi at every coupling, so the crossing xi solves
    lhs(q, xi) = lhs(1/2, xi), an equation without the coupling.  The gap of
    the two sides rises through 0 on the xi images of couplings [1e-3,
    LAMBDA_MAX]; the safeguarded Newton steps of `solve_batch` find its root,
    root_tol being the relative width of the final sign-change bracket in xi,
    and the coupling follows as (1 - u^4)/2 with u = (1 - sqrt(xi))/(1 + sqrt(xi)).
    """
    _check_q(q)
    if q == 0.5:
        raise NoCrossingError("the ratio is identically 1 at q = 0.5; no crossing to find")
    _check_tol(root_tol)
    lo, hi = (derive_frequencies(ModelParams(params_base.omega0, lam)).xi
              for lam in _CROSSING_COUPLINGS)
    g_lo, g_hi = _crossing_gap(q, lo), _crossing_gap(q, hi)
    if not g_lo < 0.0 < g_hi:
        raise NoCrossingError(f"lhs(q, xi) - lhs(1/2, xi) does not rise through 0 between "
                              f"the couplings {_CROSSING_COUPLINGS} for q={q}")

    # The steps of _solve on one row: Newton on log xi from a log-linear
    # interpolation, pushed root_tol/4 toward the root.  A point outside the
    # bracket, or a step that rounding has spoilt (the slope, within ~1e-8 of
    # q = 1/2) or that is longer than the bracket (< 20 in log xi), gives way
    # to the geometric midpoint.
    x = lo * (hi / lo) ** (g_lo / (g_lo - g_hi))
    nudge = 0.25 * root_tol
    for _ in range(_MAX_STEPS):
        if hi - lo <= root_tol * lo:
            break
        if not lo < x < hi:
            x = math.sqrt(lo * hi)
        g = _crossing_gap(q, x)
        if g <= 0.0:
            lo = x
        if g >= 0.0:
            hi = x
        slope = _dlog_lhs(q, x) - _dlog_lhs(0.5, x)
        step = -g / slope if slope > 0.0 else math.inf
        x = hi if step >= 20.0 else x * math.exp(step) * (1.0 + nudge if g < 0.0 else 1.0 - nudge)
    s = math.sqrt(0.5 * (lo + hi))
    u = (1.0 - s) / (1.0 + s)
    return 0.5 * (1.0 - u ** 4)


def scaling_exponent(params_base: ModelParams, q: float, root_tol: float = 1e-15) -> float:
    """Fitted slope of log xi_p versus log coupling over [1e-4, 1e-3].

    1/max(q, 1-q) is the small-coupling limit of the slope (2 at q = 1/2).
    Couplings of 1e-4 to 1e-3 are not yet in that limit near q = 1/2: the
    fit comes out above it by 0.4 % at q = 0.3, 1.6 % at q = 0.4, 3.1-3.3 %
    at q = 0.45-0.46 and 1.7 % at q = 0.49, and gives 2.0007 at q = 1/2.
    The slope is symmetric under q <-> 1-q.
    """
    lams = np.geomspace(1e-4, 1e-3, 8)
    batch = solve_batch(q, lams, params_base.omega0, root_tol)
    roots = [batch.solution(i).xi_p for i in range(lams.size)]
    slope = np.polyfit(np.log(lams), np.log(roots), 1)[0]
    return float(slope)
