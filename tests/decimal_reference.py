"""The stationarity condition written out in 40-digit `decimal` from its formulas.

It shares no code and no arithmetic with `harmonium.solver`:

    lhs(q, xi) = xi^q / den * ((1+xi)/(1-xi))^3,
    den = q (xi^(2q-1) - xi) + (1-q)(1 - xi^(2q)),
    d log lhs / d log xi = q - xi den'/den + 6 xi / (1 - xi^2),
    xi den' = q ((2q-1) xi^(2q-1) - xi) - 2q(1-q) xi^(2q),
    rhs(coupling) = coupling ((1+s) / (4s))^2,  s = sqrt(1 - 2 coupling).

At 40 digits over 30 of them survive the cancellation of den at 1 - xi = 1e-9.
"""

from decimal import Context, Decimal, localcontext

_CTX = Context(prec=40)


def _dec(x: float) -> Decimal:
    # round the double's exact expansion to the context first: one power of the 1e-290
    # double's full expansion takes tens of milliseconds
    return _CTX.plus(Decimal(x))


def _terms(q: Decimal, xi: Decimal):
    a, b = xi ** (2 * q - 1), xi ** (2 * q)
    return a, b, q * (a - xi) + (1 - q) * (1 - b)


def lhs_dec(q: float, xi: float) -> Decimal:
    with localcontext(_CTX):
        q, xi = _dec(q), _dec(xi)
        return xi ** q / _terms(q, xi)[2] * ((1 + xi) / (1 - xi)) ** 3


def slope_dec(q: float, xi: float) -> Decimal:
    """d log lhs / d log xi at (q, xi)."""
    with localcontext(_CTX):
        q, xi = _dec(q), _dec(xi)
        a, b, den = _terms(q, xi)
        xi_dden = q * ((2 * q - 1) * a - xi) - 2 * q * (1 - q) * b
        return q - xi_dden / den + 6 * xi / (1 - xi * xi)


def rhs_dec(coupling: float) -> Decimal:
    with localcontext(_CTX):
        lam = _dec(coupling)
        s = (1 - 2 * lam).sqrt()
        return lam * ((1 + s) / (4 * s)) ** 2


def rel_error(value: float, exact: Decimal) -> float:
    """|value / exact - 1|, formed in decimal."""
    with localcontext(_CTX):
        return float(abs(Decimal(value) / exact - 1))


def forward_error_bound(q: float, root: float, coupling: float) -> float:
    """|log(lhs(root) / rhs)| / min(q, 1-q), which bounds |root / exact root - 1| to first
    order: d log lhs / d log xi >= min(q, 1-q), as the `solver` docstring proves."""
    with localcontext(_CTX):
        return float(abs((lhs_dec(q, root) / rhs_dec(coupling)).ln())) / min(q, 1.0 - q)
