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
every coupling in the stability window.  omega_s is proportional to
omega0, so rhs, the roots and the crossings depend on (q, coupling) alone,
bit for bit; only the energies that `sweep` reports scale with omega0.

The solver works in log space, because for small coupling the root scales
like a power of the coupling (xi_p ~ coupling^(1/max(q, 1-q)) for q != 1/2,
~ coupling^2/16 at q = 1/2) and absolute-width steps would lose all
relative accuracy.  `solve_batch` takes one q and a batch of couplings: lhs
is evaluated once on one logarithmic grid, from 1 - 1e-9 down to 1e-12 and
by decades below it to 1e-290, and each row is bracketed by one binary
search in it.  All rows then advance together by Newton steps on log xi_p,
falling back to the geometric midpoint whenever a step would leave the
bracket, until each sign-change bracket is narrower than 1e-15 relative, a
fixed tolerance that keeps every root residual at or below
1e-13 * max(1, rhs).  Each step forms lhs and the analytic
d log lhs / d log xi_p from one set of powers xi^q, xi^(2q-1) and xi^(2q),
without a domain check, as the brackets keep every iterate inside (0, 1);
`stationarity_lhs` runs twice per batch, on the grid and for the residuals.
`solve_xi_p` is a batch of one on the same path, and `sweep`,
`scaling_exponent` and the CLI make one `solve_batch` call per q.  `sweep`
returns its table as columns, each one array, the q-independent ones once
per grid and the others once per batch, which the CLI formats column-wise.

Why one search in the grid brackets every root.  With t = -ln xi,

    lhs = ((1+xi)/(1-xi))^3 / (2 [q sinh((1-q)t) + (1-q) sinh(qt)]),

so lhs is symmetric under q <-> 1-q and rises strictly in xi for every q in
(0, 1): each root is unique.  As cosh >= sinh, the log-slope of lhs in xi is
at least min(q, 1-q), so for q in [Q_MIN, Q_MAX] each grid step (1.35 % or
more) raises lhs by 0.4 % or more, far above its rounding.  rhs rises with
the coupling to rhs(LAMBDA_MAX) = 160.67, and sinh x <= x cosh x gives
lhs(XI_P_MAX) >= 8.0e36, so no sign change is missed above the grid.  The
one failure left is a root below 1e-290 (at coupling 1e-300, for example).

The ratio crossing xi_p = xi needs no solve: as q = 1/2 recovers the exact
xi, `find_crossing` takes the root of lhs(q, xi) = lhs(1/2, xi) by the same
Newton steps and maps it to a coupling in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import linear_entropy, purity
from .errors import BracketError, DomainError, NoCrossingError
from .model import LAMBDA_MAX, ModelParams, _xi, derive_frequencies
from .mueller import XI_P_MAX

__all__ = [
    "Q_MIN",
    "Q_MAX",
    "StationaritySolution",
    "BatchSolution",
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

#: Below 1e-12 the grid steps down by decades, to the first one at or below this xi_p.
_WALK_FLOOR = 1e-290
#: The grid on which every batch brackets its roots: each decade is a tenth of the one
#: above it, and 2048 logarithmic points run from 1e-12 to XI_P_MAX.
_GRID = [1e-12]
while _GRID[-1] > _WALK_FLOOR:
    _GRID.append(_GRID[-1] / 10.0)
_GRID = np.concatenate((_GRID[:0:-1], np.geomspace(1e-12, XI_P_MAX, 2048)))
_GRID.flags.writeable = False
_MAX_STEPS = 200
#: Relative width of the sign-change bracket at which a root or crossing stops.
_TOL = 1e-15
#: Couplings whose exact xi bracket the ratio crossing.
_CROSSING_COUPLINGS = (1e-3, LAMBDA_MAX)


#: The columns of a sweep row, in table order.
_SWEEP_COLUMNS = (
    "q", "lambda", "xi", "xi_p", "ratio", "e_p_total", "e_ex_total", "purity", "linear_entropy",
    "linear_entropy_exact", "dual_lambda", "dual_linear_entropy", "error",
)


@dataclass(frozen=True)
class StationaritySolution:
    """Root of the stationarity condition at one (coupling, q) pair, without the pair."""

    xi_p: float
    rhs: float
    iterations: int
    residual: float


def _check_q(q: float):
    if not (Q_MIN <= q <= Q_MAX):
        raise DomainError(f"exponent q must lie in [{Q_MIN}, {Q_MAX}], got {q}")


def stationarity_lhs(q: float, xi_p):
    """Left side of the optimality condition; accepts scalar or array xi_p.

    Defined on the open interval (0, 1); vanishes like xi_p^max(q, 1-q) as
    xi_p -> 0 and diverges at the upper end.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie in (0, 1), got {q}")
    xi = np.asarray(xi_p, dtype=float)
    if not np.all((xi > 0.0) & (xi < 1.0)):  # NaN fails it too
        raise DomainError("stationarity_lhs needs xi_p strictly inside (0, 1)")
    out = _lhs(q, xi)
    return float(out) if out.ndim == 0 else out


def _lhs(q: float, xi, slope: bool = False):
    """lhs(q, xi) for scalar or array xi, without a domain check; with slope,
    also d log lhs / d log xi, for the Newton steps, from the same powers."""
    a = xi ** (2.0 * q - 1.0)
    b = xi ** (2.0 * q)
    den = q * (a - xi) + (1.0 - q) * (1.0 - b)
    lhs = xi ** q / den * ((1.0 + xi) / (1.0 - xi)) ** 3
    if not slope:
        return lhs
    xi_dden = q * ((2.0 * q - 1.0) * a - xi) - 2.0 * q * (1.0 - q) * b
    return lhs, q - xi_dden / den + 6.0 * xi / (1.0 - xi * xi)


def stationarity_rhs(params: ModelParams) -> float:
    """Right side coupling * (omega0 / (2 omega_s))^2 of the optimality condition,
    where omega_s / omega0 = 2s/(1+s) with s = sqrt(1 - 2 coupling): omega0 cancels."""
    lam = params.coupling
    if not (0.0 <= lam <= LAMBDA_MAX):
        raise DomainError(
            f"stationarity condition is defined for coupling in [0, {LAMBDA_MAX}], got {lam}"
        )
    s = math.sqrt(1.0 - 2.0 * lam)
    omega_s = 2.0 * s / (1.0 + s)
    return lam * (1.0 / (2.0 * omega_s)) ** 2


@dataclass(frozen=True, eq=False)
class BatchSolution:
    """Roots of the stationarity condition at one q, one row per coupling.

    A failed row (a coupling outside [0, LAMBDA_MAX], or a root below
    1e-290) keeps its DomainError or BracketError in `errors` and NaN in
    `xi_p` and `residual`; `solution(i)` re-raises it.  Row i belongs to the
    i-th coupling of the call, which the record does not echo.
    """

    rhs: np.ndarray
    xi_p: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    errors: tuple[Exception | None, ...]

    def solution(self, i: int) -> StationaritySolution:
        """Row i as a StationaritySolution; raises the row's error if it failed."""
        error = self.errors[i]
        if error is not None:
            # a row's error can be raised more than once; each raise starts a fresh traceback
            raise error.with_traceback(None)
        return StationaritySolution(
            float(self.xi_p[i]), float(self.rhs[i]), int(self.iterations[i]), float(self.residual[i])
        )


def solve_batch(q: float, couplings) -> BatchSolution:
    """Solve the stationarity condition at exponent q for every coupling at once.

    A row stops once its sign-change bracket is narrower than 1e-15
    relative; the residual of every root stays below ~1e-13 * max(1, rhs)
    across the validated window.  coupling = 0 gives xi_p = 0.  Rows fail
    one by one: a coupling outside [0, LAMBDA_MAX] (DomainError) or a root
    below 1e-290 (BracketError) sets only that row's error.  An exponent
    outside [Q_MIN, Q_MAX] fails every row and raises DomainError instead.
    """
    return _solve(q, couplings)


def solve_xi_p(params: ModelParams, q: float) -> StationaritySolution:
    """Solve the stationarity condition for xi_p at exponent q.

    A batch of one on the same path as `solve_batch`; the row's error is raised.
    """
    return _solve(q, (params.coupling,)).solution(0)


def _solve(q: float, couplings) -> BatchSolution:
    # The body of solve_batch.  solve_xi_p calls it directly, so that the lhs
    # evaluations of a single solve are direct children of solve_xi_p in a
    # trace that wraps the public functions (benchmark/tracing.py).
    _check_q(q)
    lams = tuple(float(lam) for lam in couplings)
    lam, n = np.array(lams), len(lams)
    rhs = np.full(n, math.nan)
    xi_p = np.full(n, math.nan)
    residual = np.full(n, math.nan)
    iterations = np.zeros(n, dtype=int)
    errors: list[Exception | None] = [None] * n

    # stationarity_rhs over the array; a refused coupling keeps the error it raises there,
    # without the traceback, which would tie this frame and `errors` in a cycle for the GC.
    valid = (0.0 <= lam) & (lam <= LAMBDA_MAX)
    s = np.sqrt(1.0 - 2.0 * lam[valid])
    rhs[valid] = lam[valid] * _scalar(pow, 1.0 / (2.0 * (2.0 * s / (1.0 + s))), 2)
    for i in np.flatnonzero(~valid):
        try:
            stationarity_rhs(ModelParams(coupling=lams[i]))
        except DomainError as exc:
            errors[i] = exc.with_traceback(None)
    xi_p[lam == 0.0] = residual[lam == 0.0] = 0.0
    rows = np.flatnonzero(valid & (lam != 0.0))

    # Bracket [lo, hi] with lhs(lo) = llo < rhs < lhs(hi) = lhi by one binary
    # search in the grid; a grid point where lhs equals rhs is the root.  Every
    # rhs lies below lhs at the top of the grid (module docstring).
    scan = stationarity_lhs(q, _GRID)
    r = rhs[rows]
    k = np.searchsorted(scan, r)
    hit = scan[k] == r
    xi_p[rows[hit]] = _GRID[k[hit]]
    residual[rows[hit]] = 0.0
    for i in rows[~hit & (k == 0)]:
        errors[i] = BracketError(
            f"no sign change of the stationarity condition down to xi_p = {_WALK_FLOOR} "
            f"at (coupling={lams[i]}, q={q})"
        )
    keep = ~hit & (k > 0)
    rows, r, k = rows[keep], r[keep], k[keep]
    lo, llo, hi, lhi = _GRID[k - 1], scan[k - 1], _GRID[k], scan[k]

    # Newton steps on log xi from a log-log interpolation inside the bracket;
    # a point that leaves the bracket falls back to the geometric midpoint.
    # Each point is pushed _TOL/4 further toward the root, so that once the
    # Newton point has converged the next one lands across the root and
    # closes the bracket.
    steps = np.zeros(rows.size, dtype=int)
    x = lo * (hi / lo) ** (np.log(r / llo) / np.log(lhi / llo))
    nudge = 0.25 * _TOL
    active = np.nonzero(hi - lo > _TOL * lo)[0]
    for _ in range(_MAX_STEPS):
        if not active.size:
            break
        xa, ra, lo_a, hi_a = x[active], r[active], lo[active], hi[active]
        outside = ~((lo_a < xa) & (xa < hi_a))
        if outside.any():
            # lo * hi leaves the normal doubles for brackets below ~1.5e-154; elsewhere
            # sqrt(lo) * sqrt(hi) would move roots by an ulp
            lo_o, hi_o = lo_a[outside], hi_a[outside]
            xa[outside] = np.where(lo_o * hi_o >= np.finfo(float).tiny, np.sqrt(lo_o * hi_o),
                                   np.sqrt(lo_o) * np.sqrt(hi_o))
        # every iterate lies inside its bracket, within (0, 1): no domain check
        fa, slope = _lhs(q, xa, slope=True)
        steps[active] += 1
        up = fa < ra
        lo[active[up]] = xa[up]
        hi[active[~up]] = xa[~up]
        lo[active[fa == ra]] = xa[fa == ra]
        x[active] = xa * np.exp(np.log(ra / fa) / slope) * np.where(
            up, 1.0 + nudge, 1.0 - nudge
        )
        active = active[hi[active] - lo[active] > _TOL * lo[active]]
    root = 0.5 * (lo + hi)
    xi_p[rows] = root
    iterations[rows] = steps
    residual[rows] = np.abs(stationarity_lhs(q, root) - r)
    return BatchSolution(rhs, xi_p, iterations, residual, tuple(errors))


def _scalar(f, x: np.ndarray, *args) -> np.ndarray:
    """f(v, *args) for each element v of x as a Python float: pow on libm, not numpy's loop."""
    return np.fromiter(map(f, x.tolist(), *([arg] * x.size for arg in args)), float, x.size)


def sweep(params_base: ModelParams, q_list, lambda_grid) -> tuple[dict, np.ndarray]:
    """Solve every (q, coupling) pair: the table's columns, and the mask of its failed rows.

    Rows run q-major then coupling-minor, both ascending; each column, keyed by
    its name in table order, broadcasts to (q, coupling): q once per q, lambda
    and the q-independent columns once per grid, the others once per
    `solve_batch`, and "error" the solver's error texts, None where the row
    solved.  The solver alone decides which rows fail, and a failed row reads
    NaN in every number but q and lambda, as `_rows` lays the table out.
    Columns follow their scalar functions' operations, with pow, expm1 and
    log1p on scalar libm; only the two energy columns depend on omega0.
    """
    qs = sorted(set(float(q) for q in q_list))
    lams = sorted(set(float(lam) for lam in lambda_grid))
    # only couplings in [0, LAMBDA_MAX] solve; 0.0 stands in for the others, whose rows fail
    lam = np.array([v if 0.0 <= v <= LAMBDA_MAX else 0.0 for v in lams])
    w0 = params_base.omega0
    w2 = w0 * np.sqrt(1.0 - 2.0 * lam)
    w_s = 2.0 * w0 * w2 / (w0 + w2)
    external, scale = w0 ** 2 / (2.0 * w_s), 0.5 * lam * w0 ** 2 / w_s
    xi, dual = _scalar(_xi, lam), -lam / (1.0 - 2.0 * lam)
    dual_entropy = linear_entropy(_scalar(_xi, dual))
    dual[lam == 0.0] = dual_entropy[lam == 0.0] = math.nan  # the uncoupled row has no dual
    per_q = np.full((5, len(qs), len(lams)), math.nan)
    errors = np.full(per_q.shape[1:], None, dtype=object)
    for b, q in enumerate(qs):
        batch = solve_batch(q, lams)
        errors[b] = [None if error is None else str(error) for error in batch.errors]
        ok = np.flatnonzero(np.equal(errors[b], None))
        xp = batch.xi_p[ok]
        bracket = 2.0 - (1.0 - _scalar(pow, xp, q)) * (1.0 - _scalar(pow, xp, 1.0 - q)) / (1.0 + xp)
        kinetic = 0.5 * w_s[ok] * _scalar(pow, (1.0 + xp) / (1.0 - xp), 2)
        per_q[:, b, ok] = (xp, xp / np.where(xi[ok] > 0.0, xi[ok], math.nan),
                           kinetic + external[ok] + (0.0 - scale[ok] * bracket),
                           purity(xp), linear_entropy(xp))
    e_ex_total = 0.25 * (w0 + w2) + external + (0.0 - scale * (2.0 - w_s / w0))
    columns = (np.array(qs)[:, None], np.array(lams), xi, *per_q[:3], e_ex_total, *per_q[3:],
               linear_entropy(xi), dual, dual_entropy, errors)
    return dict(zip(_SWEEP_COLUMNS, columns)), np.not_equal(errors, None)


def _rows(columns: dict, failed=False, blank=math.nan) -> list[tuple]:
    """A table's rows, blocks first, from its columns broadcast against each other
    and `failed`, with `blank` in the failed rows of every column but q, lambda and error."""
    return list(zip(*[np.where(failed & (name not in ("q", "lambda", "error")), blank, col)
                      .ravel().tolist() for name, col in columns.items()]))


def _crossing_gap(q: float, xi: float) -> tuple[float, float]:
    """log lhs(q, xi) - log lhs(1/2, xi) and its slope in log xi.

    The gap is -log(cosh t + 2 d b sinh t) with d = q - 1/2, t = d log xi and
    b = (1+xi)/(1-xi), and its slope -d (sinh t + 2 d b cosh t + 4 xi/(1-xi)^2
    sinh t) / (cosh t + 2 d b sinh t): every term of cosh t - 1 + 2 d b sinh t
    and of the slope's numerator carries the O(d^2) size of the result, so both
    stay accurate as q -> 1/2, where differences of the logs or of their
    slopes lose digits like 1/d^2.
    """
    d = q - 0.5
    t = d * math.log(xi)
    b = (1.0 + xi) / (1.0 - xi)
    sinh, cosh = math.sinh(t), math.cosh(t)
    gap = -math.log1p(2.0 * math.sinh(0.5 * t) ** 2 + 2.0 * d * b * sinh)
    slope = -d * (sinh + 2.0 * d * b * cosh + 4.0 * xi / (1.0 - xi) ** 2 * sinh)
    return gap, slope / (cosh + 2.0 * d * b * sinh)


def find_crossing(params_base: ModelParams, q: float) -> float:
    """Coupling at which the ratio xi_p/xi crosses 1 for the given exponent.

    q = 1/2 recovers the exact xi at every coupling, so the crossing xi solves
    lhs(q, xi) = lhs(1/2, xi), an equation without the coupling.  The gap of
    the two sides rises through 0 on the xi images of couplings [1e-3,
    LAMBDA_MAX]; the safeguarded Newton steps of `solve_batch` find its root
    to the same 1e-15 relative bracket width in xi, and the coupling follows
    as (1 - u^4)/2 with u = (1 - sqrt(xi))/(1 + sqrt(xi)).  Nothing depends
    on omega0, so params_base is unread, kept only for positional callers.
    """
    _check_q(q)
    if q == 0.5:
        raise NoCrossingError("the ratio is identically 1 at q = 0.5; no crossing to find")
    lo, hi = (derive_frequencies(ModelParams(coupling=lam)).xi for lam in _CROSSING_COUPLINGS)
    g_lo, g_hi = _crossing_gap(q, lo)[0], _crossing_gap(q, hi)[0]
    if not g_lo < 0.0 < g_hi:
        raise NoCrossingError(f"lhs(q, xi) - lhs(1/2, xi) does not rise through 0 between "
                              f"the couplings {_CROSSING_COUPLINGS} for q={q}")

    # The steps of _solve on one row: Newton on log xi from a log-linear
    # interpolation, pushed _TOL/4 toward the root.  A point outside the
    # bracket, or a step that is not downhill or longer than the bracket
    # (< 20 in log xi), gives way to the geometric midpoint.
    x = lo * (hi / lo) ** (g_lo / (g_lo - g_hi))
    nudge = 0.25 * _TOL
    for _ in range(_MAX_STEPS):
        if hi - lo <= _TOL * lo:
            break
        if not lo < x < hi:
            x = math.sqrt(lo * hi)
        g, slope = _crossing_gap(q, x)
        if g <= 0.0:
            lo = x
        if g >= 0.0:
            hi = x
        step = -g / slope if slope > 0.0 else math.inf
        x = hi if step >= 20.0 else x * math.exp(step) * (1.0 + nudge if g < 0.0 else 1.0 - nudge)
    s = math.sqrt(0.5 * (lo + hi))
    u = (1.0 - s) / (1.0 + s)
    return 0.5 * (1.0 - u ** 4)


def scaling_exponent(params_base: ModelParams, q: float) -> float:
    """Fitted slope of log xi_p versus log coupling over [1e-4, 1e-3].

    1/max(q, 1-q) is the small-coupling limit of the slope (2 at q = 1/2).
    Couplings of 1e-4 to 1e-3 are not yet in that limit near q = 1/2: the
    fit comes out above it by 0.4 % at q = 0.3, 1.6 % at q = 0.4, 3.1-3.3 %
    at q = 0.45-0.46 and 1.7 % at q = 0.49, and gives 2.0007 at q = 1/2.
    The slope is symmetric under q <-> 1-q.  Nothing depends on omega0, so
    params_base is unread, kept only for positional callers.
    """
    lams = np.geomspace(1e-4, 1e-3, 8)
    batch = solve_batch(q, lams)
    roots = [batch.solution(i).xi_p for i in range(lams.size)]
    slope = np.polyfit(np.log(lams), np.log(roots), 1)[0]
    return float(slope)
