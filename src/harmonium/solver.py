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


def _dlog_lhs(q: float, xi: np.ndarray) -> np.ndarray:
    """d log lhs / d log xi, the slope of the Newton steps on log xi_p."""
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
        if tol < _TOL_FLOOR:
            raise DomainError(f"tol below {_TOL_FLOOR} exceeds double precision, got {tol}")
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


def find_crossing(
    params_base: ModelParams,
    q: float,
    r_tol: float = 1e-9,
    root_tol: float = 1e-15,
) -> float:
    """Coupling at which the ratio xi_p/xi crosses 1 for the given exponent.

    The ratio starts above 1 at weak coupling and ends below 1 near the
    stability bound for q != 1/2; bisection runs until |ratio - 1| <= r_tol.
    """
    _check_q(q)
    if q == 0.5:
        raise NoCrossingError("the ratio is identically 1 at q = 0.5; no crossing to find")

    def ratio_minus_one(lam: float) -> float:
        params = ModelParams(omega0=params_base.omega0, coupling=lam)
        f = derive_frequencies(params)
        sol = solve_xi_p(params, q, tol=root_tol)
        return sol.xi_p / f.xi - 1.0

    a, b = 1e-3, LAMBDA_MAX
    fa = ratio_minus_one(a)
    fb = ratio_minus_one(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoCrossingError(
            f"ratio - 1 has the same sign at coupling {a} and {b} for q={q}"
        )
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = ratio_minus_one(mid)
        if abs(fm) <= r_tol:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b = mid
    raise NoCrossingError(f"ratio crossing did not converge to |ratio-1| <= {r_tol} for q={q}")


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
