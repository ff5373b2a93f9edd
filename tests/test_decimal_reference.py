"""The solver and lhs against the stationarity condition in 40-digit `decimal`.

The reference (`decimal_reference`) shares no code with `harmonium.solver`.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from decimal_reference import forward_error_bound, lhs_dec, rel_error, rhs_dec
from harmonium import BracketError, solve_batch, stationarity_lhs
from harmonium.model import LAMBDA_MAX

#: The smallest root the solver returns; a row whose root lies below it fails.
_FLOOR = 1e-290


#: Exponents over the validated window, with q = 1/2 and the window's ends drawn often.
_EXPONENTS = st.one_of(st.sampled_from([0.3, 0.5, 0.7]), st.floats(0.3, 0.7))
#: Couplings log-uniform from 1e-300 to 0.4999.
_COUPLINGS = st.lists(st.floats(-300.0, math.log10(0.4999)).map(lambda e: 10.0 ** e),
                      min_size=1, max_size=12)
#: xi_p log-uniform from 1e-290 to 0.9, and with 1 - xi_p log-uniform from 1e-9 to 0.1.
_XI = st.lists(st.one_of(st.floats(-290.0, math.log10(0.9)).map(lambda e: 10.0 ** e),
                         st.floats(-9.0, -1.0).map(lambda e: 1.0 - 10.0 ** e)),
               min_size=1, max_size=12)


class TestSolverAgainstDecimal:
    @settings(max_examples=60, deadline=None)
    @given(q=_EXPONENTS, lams=_COUPLINGS)
    def test_roots_are_within_1e_14_of_the_exact_root(self, q, lams):
        batch = solve_batch(q, lams)
        for lam, root, error in zip(lams, batch.xi_p.tolist(), batch.errors):
            assert 0.0 < lam <= LAMBDA_MAX
            if error is None:
                assert forward_error_bound(q, root, lam) <= 1e-14, (q, lam, root)

    @settings(max_examples=60, deadline=None)
    @given(q=_EXPONENTS, lams=_COUPLINGS)
    def test_a_row_fails_only_where_its_root_lies_below_the_floor(self, q, lams):
        batch = solve_batch(q, lams)
        for lam, error in zip(lams, batch.errors):
            if error is not None:
                assert isinstance(error, BracketError), (q, lam, error)
                assert lhs_dec(q, _FLOOR) > rhs_dec(lam), (q, lam)


class TestLhsAgainstDecimal:
    @settings(max_examples=60, deadline=None)
    @given(q=_EXPONENTS, xi=_XI)
    def test_within_1e_15_up_to_the_pole(self, q, xi):
        # the denominator's two differences cancel at the pole unless taken from expm1
        for x, value in zip(xi, stationarity_lhs(q, xi).tolist()):
            assert rel_error(value, lhs_dec(q, x)) <= 1e-15, (q, x)
