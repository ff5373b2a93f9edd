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
is evaluated once on a logarithmic scan grid, from 1e-12 to 1 - 1e-9 with
decades below it down to 1e-290, checked to be strictly increasing there,
and each row is bracketed by one binary search in the scan.  All rows then
advance together by Newton steps on log xi_p, using the analytic
d log lhs / d log xi_p and falling back to the geometric midpoint whenever
a step would leave the bracket, until each sign-change bracket is narrower
than 1e-15 relative.  That tolerance is fixed, because it is what keeps
every root residual at or below 1e-13 * max(1, rhs).  `solve_xi_p` is a
batch of one on the same path, and `sweep`, `scaling_exponent` and the CLI
make one `solve_batch` call per q.
`sweep` alone turns solved rows into records, with the q-independent
columns computed once per coupling.

The ratio crossing xi_p = xi needs no solve: as q = 1/2 recovers the exact
xi, `find_crossing` takes the root of lhs(q, xi) = lhs(1/2, xi) by the same
Newton steps and maps it to a coupling in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

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
#: The decades below the scan window reach down to the first one at or below this xi_p.
_WALK_FLOOR = 1e-290
_MAX_STEPS = 200
#: Relative width of the sign-change bracket at which a root or crossing stops.
_TOL = 1e-15
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
    """One (q, coupling) point of a sweep; a failed row holds NaN and the error text."""

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

    Defined on the open interval (0, 1); vanishes like xi_p^max(q, 1-q) as
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


@functools.cache
def _decades(top: float, floor: float) -> np.ndarray:
    """top/10, top/100, ... down to the first point at or below floor, ascending."""
    points = [top]
    while points[-1] > floor:
        points.append(points[-1] / 10.0)
    return np.array(points[:0:-1])


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

    A failed row (a coupling outside [0, LAMBDA_MAX], or no sign change in
    the scan) keeps its DomainError or BracketError in `errors` and NaN in
    `xi_p` and `residual`; `solution(i)` re-raises it.
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
            # a row's error can be raised more than once; each raise starts a fresh traceback
            raise error.with_traceback(None)
        return StationaritySolution(
            self.couplings[i], self.q, float(self.xi_p[i]), float(self.rhs[i]),
            int(self.iterations[i]), float(self.residual[i]),
        )


def solve_batch(q: float, couplings) -> BatchSolution:
    """Solve the stationarity condition at exponent q for every coupling at once.

    A row stops once its sign-change bracket is narrower than 1e-15
    relative; the residual of every root stays below ~1e-13 * max(1, rhs)
    across the validated window.  coupling = 0 gives xi_p = 0.  Rows fail
    one by one: a coupling outside [0, LAMBDA_MAX] or a missing sign change
    sets only that row's error.  What would fail every row raises instead:
    DomainError for an exponent outside [Q_MIN, Q_MAX], BracketError for a
    scan on which lhs is not strictly increasing.
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
    n = len(lams)
    rhs = np.full(n, math.nan)
    xi_p = np.full(n, math.nan)
    residual = np.full(n, math.nan)
    iterations = np.zeros(n, dtype=int)
    errors: list[Exception | None] = [None] * n

    # Errors are stored without their tracebacks: a traceback would hold this
    # frame and with it `errors`, a cycle that only the cyclic GC frees.
    for i, lam in enumerate(lams):
        try:
            rhs[i] = stationarity_rhs(ModelParams(coupling=lam))
        except DomainError as exc:
            errors[i] = exc.with_traceback(None)
        else:
            if lam == 0.0:
                xi_p[i] = residual[i] = 0.0
    rows = np.array([i for i in range(n) if errors[i] is None and lams[i] != 0.0], dtype=int)

    grid = np.concatenate((_decades(float(_SCAN[0]), _WALK_FLOOR), _SCAN))
    scan = stationarity_lhs(q, grid)
    if not np.all(np.diff(scan) > 0.0):
        raise BracketError(
            f"the stationarity condition is not increasing on the scan window at q={q}, "
            "so its sign change need not be unique"
        )

    # Bracket [lo, hi] with lhs(lo) = llo < rhs < lhs(hi) = lhi by one binary
    # search in the scan; a grid point where lhs equals rhs is the root.
    r = rhs[rows]
    k = np.searchsorted(scan, r)
    hit = scan[np.minimum(k, grid.size - 1)] == r
    xi_p[rows[hit]] = grid[k[hit]]
    residual[rows[hit]] = 0.0
    for i, kk in zip(rows[~hit], k[~hit]):
        if kk == 0:
            errors[i] = BracketError(
                f"no sign change of the stationarity condition down to xi_p = {_WALK_FLOOR} "
                f"at (coupling={lams[i]}, q={q})"
            )
        elif kk == grid.size:
            errors[i] = BracketError(
                f"no sign change of the stationarity condition in "
                f"[{_SCAN[0]}, {_SCAN[-1]}] at (coupling={lams[i]}, q={q})"
            )
    keep = ~hit & (k > 0) & (k < grid.size)
    rows, r, k = rows[keep], r[keep], k[keep]
    lo, llo, hi, lhi = grid[k - 1], scan[k - 1], grid[k], scan[k]

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
        # lo * hi leaves the normal doubles for brackets below ~1.5e-154; elsewhere
        # sqrt(lo) * sqrt(hi) would move roots by an ulp
        lo_o, hi_o = lo_a[outside], hi_a[outside]
        xa[outside] = np.where(lo_o * hi_o >= np.finfo(float).tiny, np.sqrt(lo_o * hi_o),
                               np.sqrt(lo_o) * np.sqrt(hi_o))
        fa = stationarity_lhs(q, xa)
        steps[active] += 1
        up = fa < ra
        lo[active[up]] = xa[up]
        hi[active[~up]] = xa[~up]
        lo[active[fa == ra]] = xa[fa == ra]
        x[active] = xa * np.exp(np.log(ra / fa) / _dlog_lhs(q, xa)) * np.where(
            up, 1.0 + nudge, 1.0 - nudge
        )
        active = active[hi[active] - lo[active] > _TOL * lo[active]]
    root = 0.5 * (lo + hi)
    xi_p[rows] = root
    iterations[rows] = steps
    residual[rows] = np.abs(stationarity_lhs(q, root) - r)
    return BatchSolution(q, lams, rhs, xi_p, iterations, residual, tuple(errors))


def sweep(params_base: ModelParams, q_list, lambda_grid) -> list[SweepRecord]:
    """Solve every (q, coupling) pair and collect records, q-major then
    coupling-minor, both ascending.

    The columns that do not depend on q (xi, the exact energy and entropy,
    the dual coupling and its entropy) are computed once per coupling in
    [0, LAMBDA_MAX]; every other coupling fails its solve at every q.  Each
    q is one `solve_batch` call over the whole grid, and a row that fails
    holds the solver's error text in its error field instead of raising.
    Only the two energy columns depend on params_base's omega0.
    """
    nan = math.nan
    qs = sorted(set(float(q) for q in q_list))
    lams = sorted(set(float(lam) for lam in lambda_grid))
    exact = {}
    for lam in lams:
        if 0.0 <= lam <= LAMBDA_MAX:
            params = replace(params_base, coupling=lam)
            xi = derive_frequencies(params).xi
            lam_dual = l_dual = nan
            if lam > 0.0:
                lam_dual = dual_coupling(lam)
                l_dual = linear_entropy(derive_frequencies(ModelParams(coupling=lam_dual)).xi)
            exact[lam] = (params, xi, exact_energy(params).total, linear_entropy(xi),
                          lam_dual, l_dual)
    records = []
    for q in qs:
        batch = solve_batch(q, lams)
        spec = KernelSpec.sum_one(q)
        for lam, xi_p, error in zip(lams, batch.xi_p.tolist(), batch.errors):
            if error is not None:
                records.append(SweepRecord(q, lam, *[nan] * 10, error=str(error)))
                continue
            params, xi, e_ex, l_ex, lam_dual, l_dual = exact[lam]
            records.append(SweepRecord(
                q, lam, xi, xi_p, xi_p / xi if xi > 0.0 else nan,
                energy_parametric(params, spec, xi_p).total, e_ex, purity(xi_p),
                linear_entropy(xi_p), l_ex, lam_dual, l_dual,
            ))
    return records


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
