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
relative accuracy.  `solve_batch` takes (q, coupling) rows.  Each row starts
at x0 = max(xi(coupling), 1e-290), the closed-form root at q = 1/2, where one
lhs evaluation with its log-slope brackets the root (below) and gives the
first Newton step on log xi_p.  All rows then advance together by Newton
steps, falling back to the geometric midpoint whenever a step would leave
the bracket, until each sign-change bracket is narrower than 1e-15
relative, which keeps every root residual at or below 1e-13 * max(1, rhs).
Each step forms lhs and d log lhs / d log xi_p from one set of powers,
without a domain check, as the brackets keep every iterate inside (0, 1);
the denominator's differences xi^(2-2q) - 1 and xi^(2q) - 1 come from expm1,
so that it does not cancel next to the pole.  `solve_xi_p` is a batch of one
on the same path, and each command makes one `solve_batch` call for all its
exponents.

Why one lhs brackets every root.  With t = -ln xi,

    lhs = ((1+xi)/(1-xi))^3 / (2 [q sinh((1-q)t) + (1-q) sinh(qt)]),

so lhs is symmetric under q <-> 1-q and rises strictly in xi for every q in
(0, 1): each root is unique.  As cosh >= sinh, the log-slope of lhs in xi is
at least m = min(q, 1-q), so f = lhs(x0) bounds the root on both sides: if
f < rhs it lies in (x0, x0 (rhs/f)^(1/m)], and otherwise in
[x0 (rhs/f)^(1/m), x0].  rhs rises with the coupling to rhs(LAMBDA_MAX) =
160.67, and sinh x <= x cosh x gives lhs(XI_P_MAX) >= 8.0e36, so the upper
end is cut at XI_P_MAX.  At x0 = xi(coupling), rhs = lhs(1/2, x0); lhs(q, x0)
exceeds it only where sinh(t/2) > q sinh((1-q)t) + (1-q) sinh(qt), that is
above the ratio crossing, and then by at most 1/(4q(1-q)) <= 1.2, so a
bracket below x0 stays within a factor 0.55 of it.  It reaches 1e-290 only
where x0 is 1e-290 itself: a row fails, with BracketError, exactly when
lhs(q, 1e-290) > rhs, that is when its root lies below 1e-290 (at coupling
1e-300, for example).

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

#: The smallest root: a row fails where lhs at this xi_p lies above its rhs.
_ROOT_FLOOR = 1e-290
_MAX_STEPS = 200
#: Relative width of the sign-change bracket at which a root or crossing stops.
_TOL = 1e-15
#: Each Newton point goes this much further toward the root, so that once the Newton
#: point has converged the next one lands across the root and closes the bracket.
_PUSH = 0.25 * _TOL
#: Couplings whose exact xi bracket the ratio crossing.
_CROSSING_COUPLINGS = (1e-3, LAMBDA_MAX)
_SCALING_COUPLINGS = tuple(np.geomspace(1e-4, 1e-3, 8).tolist())  # `scaling_exponent` fits these
_FIT_X = tuple(math.log(lam) for lam in _SCALING_COUPLINGS)
_FIT_DX = tuple(x - math.fsum(_FIT_X) / len(_FIT_X) for x in _FIT_X)  # `_fit_slope`'s x - x_bar
_FIT_SXX = math.fsum(d * d for d in _FIT_DX)


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


def _lhs(q, xi, slope: bool = False):
    """lhs(q, xi) unchecked, and with slope d log lhs / d log xi.  The denominator takes
    xi^(2-2q) - 1 and xi^(2q) - 1 from expm1: its two terms are then both positive, and
    nothing cancels at the pole.  q = 1/2 takes sqrt(xi): numpy's pow with an array q rounds
    apart, and a float q of 1/2 gives sqrt already."""
    log = np.log(xi)
    a = xi ** (2.0 * q - 1.0)
    b_1 = np.expm1(2.0 * q * log)
    den = -q * a * np.expm1((2.0 - 2.0 * q) * log) - (1.0 - q) * b_1
    root = np.where(q == 0.5, np.sqrt(xi), xi ** q)
    lhs = root / den * ((1.0 + xi) / (1.0 - xi)) ** 3
    if not slope:
        return lhs
    xi_dden = q * ((2.0 * q - 1.0) * a - xi) - 2.0 * q * (1.0 - q) * (1.0 + b_1)
    return lhs, q - xi_dden / den + 6.0 * xi / ((1.0 - xi) * (1.0 + xi))


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
    """Roots of the stationarity condition, shaped as q broadcast against the couplings.

    A failed row (a coupling outside [0, LAMBDA_MAX], or a root below 1e-290)
    keeps its DomainError or BracketError in `errors` and NaN in `xi_p` and
    `residual`; `solution(i)` re-raises it.  Both count rows in C order.
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
        return StationaritySolution(float(self.xi_p.flat[i]), float(self.rhs.flat[i]),
                                    int(self.iterations.flat[i]), float(self.residual.flat[i]))


def solve_batch(q, couplings) -> BatchSolution:
    """Solve the stationarity condition at q, a float or an array broadcast against the couplings.

    A row stops once its sign-change bracket is narrower than 1e-15
    relative; the residual of every root stays below ~1e-13 * max(1, rhs)
    across the validated window.  coupling = 0 gives xi_p = 0.  Rows fail
    one by one: a coupling outside [0, LAMBDA_MAX] (DomainError) or a root
    below 1e-290 (BracketError) sets only that row's error.  The first q
    outside [Q_MIN, Q_MAX] in C order raises DomainError instead.
    """
    for value in dict.fromkeys(np.ravel(q).tolist()):
        _check_q(value)
    qs, lam = np.broadcast_arrays(np.asarray(q, dtype=float), [float(v) for v in couplings])
    shape, qs, lam = lam.shape, qs.ravel(), lam.ravel()
    rhs, xi_p, residual = np.full((3, lam.size), math.nan)
    iterations = np.zeros(lam.size, dtype=int)
    errors: list[Exception | None] = [None] * lam.size

    # stationarity_rhs over the array; a refused coupling keeps the error it raises there,
    # without the traceback, which would tie this frame and `errors` in a cycle for the GC.
    valid = (0.0 <= lam) & (lam <= LAMBDA_MAX)
    s = np.sqrt(1.0 - 2.0 * lam[valid])
    rhs[valid] = lam[valid] * _scalar(pow, 1.0 / (2.0 * (2.0 * s / (1.0 + s))), 2)
    for i in np.flatnonzero(~valid):
        try:
            stationarity_rhs(ModelParams(coupling=float(lam[i])))
        except DomainError as exc:
            errors[i] = exc.with_traceback(None)
    xi_p[lam == 0.0] = residual[lam == 0.0] = 0.0
    rows = np.flatnonzero(valid & (lam != 0.0))

    # One lhs at x, the exact root at q = 1/2, brackets each row by the slope bound of the
    # module docstring and is step 0 of the Newton steps on log xi.  Each Newton point is
    # pushed _PUSH toward the root; a point that leaves the bracket falls back to the
    # geometric midpoint.  Open rows (i into rows) step on copies that drop out as they close.
    r, qr = rhs[rows], qs[rows]
    one_minus_u = -np.expm1(np.log1p(-2.0 * lam[rows]) / 4.0)  # model._xi over the array
    x = np.maximum((one_minus_u / (2.0 - one_minus_u)) ** 2, _ROOT_FLOOR)
    f, slope = _lhs(qr, x, slope=True)
    up = f < r
    far = x * (r / f) ** (1.0 / np.minimum(qr, 1.0 - qr))
    below = (f > r) & (x == _ROOT_FLOOR)
    for i in rows[below]:
        errors[i] = BracketError(
            f"no sign change of the stationarity condition down to xi_p = {_ROOT_FLOOR} "
            f"at (coupling={float(lam[i])}, q={float(qs[i])})"
        )
    rows, r, qr, x, f, slope, up, far = (v[~below] for v in (rows, r, qr, x, f, slope, up, far))
    lo, hi = np.where(up, x, far), np.where(up, np.minimum(far, XI_P_MAX), x)
    i, lo_i, hi_i, x_i, r_i, q_i = np.arange(rows.size), lo, hi, x, r, qr
    for step in range(_MAX_STEPS + 1):
        if step:
            outside = ~((lo_i < x_i) & (x_i < hi_i))
            if outside.any():
                # lo * hi leaves the normal doubles for brackets below ~1.5e-154; elsewhere
                # sqrt(lo) * sqrt(hi) would move roots by an ulp
                lo_o, hi_o = lo_i[outside], hi_i[outside]
                x_i[outside] = np.where(lo_o * hi_o >= np.finfo(float).tiny, np.sqrt(lo_o * hi_o),
                                        np.sqrt(lo_o) * np.sqrt(hi_o))
            # every iterate lies inside its bracket, within (0, 1): no domain check
            f, slope = _lhs(q_i, x_i, slope=True)
            up = f < r_i
            lo_i = np.where(up | (f == r_i), x_i, lo_i)
            hi_i = np.where(up, hi_i, x_i)
            lo[i], hi[i], iterations[rows[i]] = lo_i, hi_i, step
        x_i = x_i * np.exp(np.log(r_i / f) / slope) * np.where(up, 1.0 + _PUSH, 1.0 - _PUSH)
        go = hi_i - lo_i > _TOL * lo_i
        if not go.all():
            i, lo_i, hi_i, x_i, r_i, q_i, f, slope, up = (
                v[go] for v in (i, lo_i, hi_i, x_i, r_i, q_i, f, slope, up))
        if not i.size:
            break
    xi_p[rows] = root = 0.5 * (lo + hi)
    residual[rows] = np.abs(_lhs(qr, root) - r)
    return BatchSolution(rhs.reshape(shape), xi_p.reshape(shape), iterations.reshape(shape),
                         residual.reshape(shape), tuple(errors))


def solve_xi_p(params: ModelParams, q: float) -> StationaritySolution:
    """Solve the stationarity condition for xi_p at exponent q.

    A `solve_batch` of one; the row's error is raised.
    """
    return solve_batch(q, (params.coupling,)).solution(0)


def _scalar(f, x: np.ndarray, *args) -> np.ndarray:
    """f on each element of a 1-D x and of args (scalars or like x), as Python floats: libm."""
    args = (arg.tolist() if np.ndim(arg) else [arg] * x.size for arg in args)
    return np.fromiter(map(f, x.tolist(), *args), float, x.size)


def sweep(params_base: ModelParams, q_list, lambda_grid) -> tuple[dict, np.ndarray]:
    """Solve every (q, coupling) pair: the table's columns, and the mask of its failed rows.

    Rows run q-major then coupling-minor, both ascending; each column, keyed by
    its name in table order, broadcasts to (q, coupling): q once per q, lambda
    and the q-independent columns once per grid, the others from one
    `solve_batch`, and "error" the solver's error texts, None where the row
    solved.  The solver alone decides which rows fail, and a failed row reads
    NaN in every number but q and lambda, as `_rows` lays the table out; a
    NaN coupling, which has no place in the order, raises DomainError.
    Columns follow their scalar functions' operations, with pow, expm1 and
    log1p on libm; only the energies scale with omega0.
    """
    qs = np.array(sorted(set(float(q) for q in q_list)))[:, None]
    lams = sorted(set(float(lam) for lam in lambda_grid))
    if any(math.isnan(v) for v in lams):
        raise DomainError("sweep couplings must not be NaN, which has no place in their order")
    batch = solve_batch(qs, lams)
    return _columns(params_base, qs, lams, batch.xi_p, batch.errors)


def _columns(params_base: ModelParams, qs: np.ndarray, lams: list, xi_p: np.ndarray, errors):
    """`sweep`'s columns and failed mask, from a (k, 1) qs, n lams and their (k, n) roots."""
    # only couplings in [0, LAMBDA_MAX] solve; 0.0 stands in for the others, whose rows fail
    lam = np.array([v if 0.0 <= v <= LAMBDA_MAX else 0.0 for v in lams])
    w0 = params_base.omega0
    w2 = w0 * np.sqrt(1.0 - 2.0 * lam)
    w_s = 2.0 * w0 * w2 / (w0 + w2)
    external, scale = w0 ** 2 / (2.0 * w_s), 0.5 * lam * w0 ** 2 / w_s
    xi, dual = _scalar(_xi, lam), -lam / (1.0 - 2.0 * lam)
    dual_entropy = linear_entropy(_scalar(_xi, dual))
    dual[lam == 0.0] = dual_entropy[lam == 0.0] = math.nan  # the uncoupled row has no dual
    errors = np.array([None if e is None else str(e) for e in errors], object).reshape(xi_p.shape)
    failed = np.not_equal(errors, None)
    b, j = np.nonzero(~failed)
    xp, q = xi_p[b, j], qs[b, 0]
    bracket = 2.0 - (1.0 - _scalar(pow, xp, q)) * (1.0 - _scalar(pow, xp, 1.0 - q)) / (1.0 + xp)
    kinetic = 0.5 * w_s[j] * _scalar(pow, (1.0 + xp) / (1.0 - xp), 2)
    per_q = np.full((5, *failed.shape), math.nan)
    per_q[:, b, j] = (xp, xp / np.where(xi[j] > 0.0, xi[j], math.nan),
                      kinetic + external[j] + (0.0 - scale[j] * bracket),
                      purity(xp), linear_entropy(xp))
    e_ex_total = 0.25 * (w0 + w2) + external + (0.0 - scale * (2.0 - w_s / w0))
    columns = (qs, np.array(lams), xi, *per_q[:3], e_ex_total, *per_q[3:],
               linear_entropy(xi), dual, dual_entropy, errors)
    return dict(zip(_SWEEP_COLUMNS, columns)), failed


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

    # The steps of solve_batch on one row: Newton on log xi from a log-linear
    # interpolation, pushed _PUSH toward the root.  A point outside the
    # bracket, or a step that is not downhill or longer than the bracket
    # (< 20 in log xi), gives way to the geometric midpoint.
    x = lo * (hi / lo) ** (g_lo / (g_lo - g_hi))
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
        x = hi if step >= 20.0 else x * math.exp(step) * (1.0 + _PUSH if g < 0.0 else 1.0 - _PUSH)
    s = math.sqrt(0.5 * (lo + hi))
    u = (1.0 - s) / (1.0 + s)
    return 0.5 * (1.0 - u ** 4)


def scaling_exponent(params_base: ModelParams, q: float) -> float:
    """Least-squares slope of log xi_p versus log coupling over [1e-4, 1e-3], by `_fit_slope`.

    1/max(q, 1-q) is the small-coupling limit of the slope (2 at q = 1/2).
    Couplings of 1e-4 to 1e-3 are not yet in that limit near q = 1/2: the
    fit comes out above it by 0.4 % at q = 0.3, 1.6 % at q = 0.4, 3.1-3.3 %
    at q = 0.45-0.46 and 1.7 % at q = 0.49, and gives 2.0007 at q = 1/2.
    The slope is symmetric under q <-> 1-q.  Nothing depends on omega0, so
    params_base is unread, kept only for positional callers.
    """
    return _fit_slope(solve_batch(q, _SCALING_COUPLINGS).xi_p)  # no fit coupling fails


def _fit_slope(roots: np.ndarray) -> float:
    """The least-squares slope of log root against log coupling at `_SCALING_COUPLINGS`, in
    closed form from libm logs and math.fsum: within 2.2e-16 of the exact slope of those logs."""
    ys = [math.log(root) for root in roots.tolist()]
    y_bar = math.fsum(ys) / len(ys)
    return math.fsum(d * (y - y_bar) for d, y in zip(_FIT_DX, ys)) / _FIT_SXX
