import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_values as ref
from decimal_reference import rel_error, slope_dec
from harmonium import solver as solver_module
from harmonium import (
    BracketError,
    DomainError,
    KernelSpec,
    ModelParams,
    NoCrossingError,
    Q_MAX,
    Q_MIN,
    derive_frequencies,
    dual_coupling,
    energy_parametric,
    exact_energy,
    find_crossing,
    linear_entropy,
    purity,
    scaling_exponent,
    solve_batch,
    solve_xi_p,
    stationarity_lhs,
    stationarity_rhs,
    sweep,
)
from harmonium.model import LAMBDA_MAX
from harmonium.mueller import XI_P_MAX

BASE = ModelParams()
P03 = ModelParams(coupling=0.3)


class TestStationarityPieces:
    def test_rhs_reference(self):
        assert stationarity_rhs(P03) == pytest.approx(ref.RHS_03, rel=1e-14)
        assert stationarity_rhs(ModelParams(coupling=0.1)) == pytest.approx(
            ref.RHS_01, rel=1e-14
        )
        assert stationarity_rhs(ModelParams(coupling=0.45)) == pytest.approx(
            ref.RHS_45, rel=1e-14
        )

    def test_rhs_is_scale_free(self):
        assert stationarity_rhs(ModelParams(omega0=2.0, coupling=0.3)) == pytest.approx(
            ref.RHS_03_W2, rel=1e-14
        )

    def test_rhs_closed_form_in_xi(self):
        # the same quantity expressed through the correlation parameter
        for lam in (1e-4, 0.01, 0.1, 0.3, 0.45):
            f = derive_frequencies(ModelParams(coupling=lam))
            xi = f.xi
            via_xi = math.sqrt(xi) * (1.0 + xi) ** 3 / (1.0 - xi) ** 4
            assert stationarity_rhs(ModelParams(coupling=lam)) == pytest.approx(
                via_xi, rel=1e-12
            )

    def test_rhs_domain(self):
        with pytest.raises(DomainError):
            stationarity_rhs(ModelParams(coupling=-0.1))
        with pytest.raises(DomainError):
            stationarity_rhs(ModelParams(coupling=0.49995))

    def test_lhs_vector_matches_scalar(self):
        xi = np.geomspace(1e-8, 0.9, 25)
        vec = stationarity_lhs(0.4, xi)
        assert vec == pytest.approx([stationarity_lhs(0.4, float(v)) for v in xi], rel=1e-14)

    def test_lhs_small_xi_exponent(self):
        # lhs ~ xi^max(q, 1-q) as xi -> 0
        for q, expo in ((0.5, 0.5), (0.4, 0.6), (0.7, 0.7)):
            slope = math.log(
                stationarity_lhs(q, 1e-8) / stationarity_lhs(q, 1e-10)
            ) / math.log(100.0)
            assert slope == pytest.approx(expo, abs=0.01)

    @pytest.mark.parametrize("q", [0.3, 0.45, 0.6, 0.7])
    def test_lhs_vanishes_like_the_larger_power(self, q):
        # the log-slope deep in the small-xi tail is max(q, 1 - q), not min(q, 1 - q)
        slope = math.log(
            stationarity_lhs(q, 1e-190) / stationarity_lhs(q, 1e-200)
        ) / math.log(1e10)
        assert slope == pytest.approx(max(q, 1.0 - q), abs=1e-3)

    @settings(max_examples=200, deadline=None)
    @given(q=st.floats(1e-4, 1.0 - 1e-4))
    def test_lhs_monotone_on_scan_window(self, q):
        # the float side of the solver docstring's proof: each 1.3 % step from the floor to
        # XI_P_MAX raises lhs well above its rounding, and the top lies above every rhs
        lhs = stationarity_lhs(q, np.geomspace(1e-290, XI_P_MAX, 50_001))
        assert np.min(lhs[1:] / lhs[:-1]) >= 1.005
        assert lhs[-1] >= 1e36 > stationarity_rhs(ModelParams(coupling=LAMBDA_MAX))

    def test_lhs_domain(self):
        with pytest.raises(DomainError):
            stationarity_lhs(0.5, 0.0)
        with pytest.raises(DomainError):
            stationarity_lhs(0.5, 1.0)
        with pytest.raises(DomainError):
            stationarity_lhs(0.0, 0.5)

    def test_lhs_refuses_nan(self):
        with pytest.raises(DomainError, match="strictly inside"):
            stationarity_lhs(0.4, math.nan)
        with pytest.raises(DomainError, match="strictly inside"):
            stationarity_lhs(0.4, np.array([0.1, math.nan, 0.3]))


class TestFusedStep:
    XI = np.geomspace(1e-290, 1.0 - 1e-9, 4001)

    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.3, 0.7))
    def test_lhs_and_slope_match_bit_for_bit(self, q):
        # lhs as the public function forms it; the slope within 1e-15 of 40-digit decimal,
        # on every tenth point and next to the pole
        lhs = solver_module._lhs(q, self.XI, slope=True)[0]
        assert lhs.tobytes() == stationarity_lhs(q, self.XI).tobytes()
        xi = np.concatenate((self.XI[::10], 1.0 - np.geomspace(1e-9, 0.1, 50)))
        slope = solver_module._lhs(q, xi, slope=True)[1]
        for x, value in zip(xi.tolist(), slope.tolist()):
            assert rel_error(value, slope_dec(q, x)) <= 1e-15, (q, x)

    def test_a_batch_does_not_call_the_public_lhs(self, monkeypatch):
        # the bracket, the Newton steps and the residuals call the fused helper: none goes
        # through the public domain check
        public = []
        lhs = solver_module.stationarity_lhs
        monkeypatch.setattr(solver_module, "stationarity_lhs",
                            lambda q, xi: public.append(q) or lhs(q, xi))
        for q in (0.3, 0.5, 0.7, [[0.3], [0.5], [0.7]], [0.5, 0.3, 0.5, 0.7, 0.3, 0.3]):
            batch = solve_batch(q, [0.0, 1e-200, 1e-9, 0.3, 0.4999, 0.6])
            assert batch.iterations.max() > 0
            assert public == [], q

    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.3, 0.7), half=st.booleans())
    def test_array_exponents_match_the_scalar_path(self, q, half):
        # numpy takes sqrt for a scalar exponent 0.5 but pow for an array one; _lhs masks it
        q = 0.5 if half else q
        lhs, slope = solver_module._lhs(np.full(self.XI.size, q), self.XI, slope=True)
        scalar_lhs, scalar_slope = solver_module._lhs(q, self.XI, slope=True)
        assert lhs.tobytes() == scalar_lhs.tobytes() and slope.tobytes() == scalar_slope.tobytes()


class TestSolve:
    def test_square_root_exponent_recovers_xi(self):
        for lam in (1e-3, 0.01, 0.1, 0.3, 0.45):
            p = ModelParams(coupling=lam)
            f = derive_frequencies(p)
            sol = solve_xi_p(p, 0.5)
            assert abs(sol.xi_p - f.xi) <= 1e-10 * max(1.0, f.xi)

    def test_frozen_roots(self):
        assert solve_xi_p(P03, 0.4).xi_p == pytest.approx(ref.XI_P_Q04_03, rel=1e-12)
        assert solve_xi_p(P03, 0.3).xi_p == pytest.approx(ref.XI_P_Q03_03, rel=1e-12)
        assert solve_xi_p(ModelParams(coupling=0.1), 0.4).xi_p == pytest.approx(
            ref.XI_P_Q04_01, rel=1e-12
        )

    def test_exponent_mirror_symmetry(self):
        # the energy depends on q only through q(1-q) products, so the
        # stationary point is invariant under q <-> 1-q
        for lam in (0.05, 0.3):
            p = ModelParams(coupling=lam)
            assert solve_xi_p(p, 0.4).xi_p == pytest.approx(
                solve_xi_p(p, 0.6).xi_p, rel=1e-12
            )

    def test_residual_contract(self):
        for q in (0.3, 0.4, 0.5, 0.6, 0.7):
            for lam in (1e-4, 1e-2, 0.1, 0.3, 0.45):
                sol = solve_xi_p(ModelParams(coupling=lam), q)
                assert sol.residual <= 1e-13 * max(1.0, sol.rhs)

    def test_uncoupled_short_circuit(self):
        sol = solve_xi_p(BASE, 0.5)
        assert sol.xi_p == 0.0 and sol.iterations == 0 and sol.residual == 0.0

    def test_tiny_coupling_below_scan_window(self):
        sol = solve_xi_p(ModelParams(coupling=1e-8), 0.5)
        assert sol.xi_p == pytest.approx(6.25e-18, rel=1e-3)
        assert sol.residual <= 1e-13 * max(1.0, sol.rhs)

    def test_small_coupling_reference(self):
        sol = solve_xi_p(ModelParams(coupling=0.01), 0.5)
        assert sol.xi_p == pytest.approx(ref.XI_001, rel=1e-10)

    def test_scale_covariance(self):
        sol = solve_xi_p(ModelParams(omega0=2.0, coupling=0.3), 0.5)
        assert sol.xi_p == pytest.approx(ref.XI_03_W2, rel=1e-12)

    def test_solution_record_fields(self):
        sol = solve_xi_p(P03, 0.4)
        assert sol.rhs == pytest.approx(ref.RHS_03, rel=1e-14)
        assert 0 < sol.iterations < 200

    def test_q_window(self):
        for q in (0.25, 0.75, 0.0, 1.0):
            with pytest.raises(DomainError):
                solve_xi_p(P03, q)

    def test_local_minimality(self):
        # the root is a minimum of the energy, not just a stationary point
        from harmonium import KernelSpec, energy_parametric

        for q in (0.4, 0.5, 0.6):
            sol = solve_xi_p(P03, q)
            spec = KernelSpec.sum_one(q)
            e_star = energy_parametric(P03, spec, sol.xi_p).total
            assert e_star < energy_parametric(P03, spec, sol.xi_p * 0.9).total
            assert e_star < energy_parametric(P03, spec, sol.xi_p * 1.1).total

    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(1e-6, 0.45), q=st.floats(0.3, 0.7))
    def test_residual_property(self, lam, q):
        sol = solve_xi_p(ModelParams(coupling=lam), q)
        assert sol.residual <= 1e-13 * max(1.0, sol.rhs)


#: Couplings at and past the edges of the solver's window [0, LAMBDA_MAX]: 0, 1e-300,
#: negative ones, and ones past LAMBDA_MAX and past the stability bound 0.5.
_EDGE_COUPLINGS = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, LAMBDA_MAX, 0.5, -math.inf, math.inf]),
    st.floats(-10.0, 0.0, exclude_max=True),
    st.floats(LAMBDA_MAX, 0.5, exclude_min=True),
    st.floats(0.5, 10.0),
), max_size=8)


def _window_couplings(seed: int, n: int) -> list[float]:
    """n couplings uniform in [0, LAMBDA_MAX] and n log-uniform from 1e-300 to LAMBDA_MAX.
    libm's pow and numpy's array power round apart on about 1 input in 1200 for a square
    and 6 in 100 for a fractional power, so a property needs inputs by the thousand."""
    rng = np.random.default_rng(seed)
    log_spaced = 10.0 ** rng.uniform(-300.0, math.log10(LAMBDA_MAX), n)
    return rng.uniform(0.0, LAMBDA_MAX, n).tolist() + log_spaced.tolist()


def _per_row_sweep(params_base, q_list, lambda_grid):
    """`sweep` one row at a time through the public scalar functions: the
    reference whose bits the column arrays must keep."""
    nan = math.nan
    lams = sorted(set(float(lam) for lam in lambda_grid))
    rows = []
    for q in sorted(set(float(q) for q in q_list)):
        batch = solve_batch(q, lams)
        for lam, xi_p, error in zip(lams, batch.xi_p.tolist(), batch.errors):
            if error is not None:
                rows.append((q, lam, *[nan] * 10, str(error)))
                continue
            params = ModelParams(omega0=params_base.omega0, coupling=lam)
            xi = derive_frequencies(params).xi
            lam_dual = l_dual = nan
            if lam > 0.0:
                lam_dual = dual_coupling(lam)
                l_dual = linear_entropy(derive_frequencies(ModelParams(coupling=lam_dual)).xi)
            rows.append((
                q, lam, xi, xi_p, xi_p / xi if xi > 0.0 else nan,
                energy_parametric(params, KernelSpec.sum_one(q), xi_p).total,
                exact_energy(params).total, purity(xi_p), linear_entropy(xi_p),
                linear_entropy(xi), lam_dual, l_dual, None,
            ))
    return rows


def _sweep_rows(params_base, q_list, lambda_grid):
    """`sweep`'s table as one dict per row, laid out as the CLI's JSON lays it out."""
    columns, failed = sweep(params_base, q_list, lambda_grid)
    return [dict(zip(columns, row)) for row in solver_module._rows(columns, failed)]


def _bits(value):
    """A float by its exact bits (every NaN alike), anything else as it is."""
    return (type(value), value.hex()) if isinstance(value, float) else value


class TestSweep:
    def test_ordering_and_shape(self):
        rows = _sweep_rows(BASE, [0.5, 0.4], [0.3, 0.1, 0.2])
        assert len(rows) == 6
        assert [r["q"] for r in rows] == [0.4, 0.4, 0.4, 0.5, 0.5, 0.5]
        assert [r["lambda"] for r in rows] == [0.1, 0.2, 0.3, 0.1, 0.2, 0.3]

    def test_record_content(self):
        rows = _sweep_rows(BASE, [0.5], [0.3])
        r = rows[0]
        f = derive_frequencies(P03)
        assert r["xi"] == pytest.approx(f.xi, rel=1e-14)
        assert r["ratio"] == pytest.approx(1.0, abs=1e-10)
        assert r["e_p_total"] == pytest.approx(ref.E_TOTAL_03, rel=1e-12)
        assert r["e_ex_total"] == pytest.approx(ref.E_TOTAL_03, rel=1e-13)
        assert r["dual_lambda"] == pytest.approx(ref.DUAL_COUPLING_03, rel=1e-14)
        assert r["dual_linear_entropy"] == pytest.approx(r["linear_entropy_exact"], abs=1e-12)
        assert r["error"] is None

    def test_failures_are_recorded_not_raised(self):
        rows = _sweep_rows(BASE, [0.5], [0.3, 0.49995])
        good = [r for r in rows if r["error"] is None]
        bad = [r for r in rows if r["error"] is not None]
        assert len(good) == 1 and len(bad) == 1
        assert math.isnan(bad[0]["xi_p"])
        assert "coupling" in bad[0]["error"]

    def test_nan_coupling_is_refused_before_any_solve(self, monkeypatch):
        # a NaN has no place in the ascending coupling order
        monkeypatch.setattr(solver_module, "solve_batch", lambda *args: pytest.fail("solved"))
        with pytest.raises(DomainError, match="must not be NaN"):
            sweep(BASE, [0.5], [0.2, math.nan, 0.1, math.nan])

    def test_uncoupled_row_has_undefined_ratio(self):
        r = _sweep_rows(BASE, [0.5], [0.0])[0]
        assert r["xi_p"] == 0.0 and math.isnan(r["ratio"])
        assert math.isnan(r["dual_lambda"])
        assert r["error"] is None

    def test_columns_are_held_once_per_grid_or_per_q(self):
        # 1e-200 fails at q = 0.5 only: the failure mask is per q, not per coupling
        columns, failed = sweep(BASE, [0.5, 0.3], [0.3, 1e-200, 0.1, 0.49995])
        assert list(columns) == list(solver_module._SWEEP_COLUMNS)
        shapes = {name: np.shape(col) for name, col in columns.items()}
        assert shapes == {"q": (2, 1), "lambda": (4,), "xi": (4,), "xi_p": (2, 4), "ratio": (2, 4),
                          "e_p_total": (2, 4), "e_ex_total": (4,), "purity": (2, 4),
                          "linear_entropy": (2, 4), "linear_entropy_exact": (4,),
                          "dual_lambda": (4,), "dual_linear_entropy": (4,), "error": (2, 4)}
        assert columns["q"].ravel().tolist() == [0.3, 0.5]
        assert columns["lambda"].tolist() == [1e-200, 0.1, 0.3, 0.49995]
        assert failed.tolist() == [[False, False, False, True], [True, False, False, True]]
        assert [[e is not None for e in row] for row in columns["error"]] == failed.tolist()
        # the per-q columns hold NaN in failed rows; the grid columns keep their values
        assert np.isnan(columns["xi_p"][failed]).all() and not np.isnan(columns["xi_p"][~failed]).any()
        assert not math.isnan(columns["xi"][0])

    def test_tiny_coupling_ratio_at_square_root_exponent(self):
        # xi and xi_p both keep their relative accuracy at coupling 1e-9
        r = _sweep_rows(BASE, [0.5], [1e-9])[0]
        assert abs(r["ratio"] - 1.0) <= 1e-13

    @settings(max_examples=30, deadline=None)
    @given(
        omega0=st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
        qs=st.lists(st.floats(0.3, 0.7), min_size=1, max_size=3),
        seed=st.integers(0, 2 ** 32 - 1),
        edges=_EDGE_COUPLINGS,
    )
    def test_rows_match_the_per_row_reference(self, omega0, qs, seed, edges):
        # the column arrays keep every bit of the scalar functions, error rows included
        params = ModelParams(omega0=omega0)
        lams = _window_couplings(seed, 200) + edges
        rows = _sweep_rows(params, qs, lams)
        expected = _per_row_sweep(params, qs, lams)
        assert [list(row) for row in rows] == [list(solver_module._SWEEP_COLUMNS)] * len(rows)
        assert [[_bits(v) for v in row.values()] for row in rows] == [
            [_bits(v) for v in row] for row in expected]


class TestBatch:
    LAMS = [0.0, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.45, 0.4999]

    def test_rows_match_single_solves_bit_for_bit(self):
        # omega0 cancels from the stationarity condition, so a single solve at
        # any omega0 gives the batch's row, bit for bit
        for q in (0.3, 0.45, 0.5, 0.6, 0.7):
            batch = solve_batch(q, self.LAMS)
            for omega0 in (1.0, 2.0, 3.0, 7.3):
                for i, lam in enumerate(self.LAMS):
                    single = solve_xi_p(ModelParams(omega0=omega0, coupling=lam), q)
                    assert batch.solution(i) == single

    def test_iteration_count(self):
        for q in (0.3, 0.4, 0.5, 0.6, 0.7):
            batch = solve_batch(q, np.geomspace(1e-9, 0.4999, 64))
            assert all(e is None for e in batch.errors)
            assert batch.iterations.max() <= 10
        # at q = 1/2 the start is the root: step 0's bracket closes most rows, and they
        # take no Newton step
        assert np.count_nonzero(solve_batch(0.5, np.geomspace(1e-9, 0.4999, 64)).iterations) < 16

    def test_per_row_errors(self):
        batch = solve_batch(0.4, [0.0, 0.3, 0.49995, -0.1])
        assert batch.xi_p[0] == 0.0 and batch.iterations[0] == 0 and batch.errors[0] is None
        assert batch.solution(1) == solve_xi_p(P03, 0.4)
        for i, lam in ((2, 0.49995), (3, -0.1)):
            with pytest.raises(DomainError) as single:
                stationarity_rhs(ModelParams(coupling=lam))
            assert isinstance(batch.errors[i], DomainError)
            assert str(batch.errors[i]) == str(single.value)
            assert math.isnan(batch.xi_p[i]) and math.isnan(batch.residual[i])
            with pytest.raises(DomainError, match="stationarity condition is defined"):
                batch.solution(i)

    def test_failed_walk_fails_only_its_row(self):
        # the q = 1/2 root at coupling 1e-300 lies near 6e-602, below the 1e-290 floor
        batch = solve_batch(0.5, [1e-300, 1e-9, 0.3])
        assert isinstance(batch.errors[0], BracketError)
        assert "down to xi_p = 1e-290" in str(batch.errors[0])
        assert math.isnan(batch.xi_p[0]) and math.isnan(batch.residual[0])
        with pytest.raises(BracketError, match="no sign change"):
            batch.solution(0)
        assert batch.errors[1] is None and batch.errors[2] is None
        assert batch.xi_p[2] == solve_xi_p(P03, 0.5).xi_p

    def test_exponent_and_tol_raise(self):
        with pytest.raises(DomainError):
            solve_batch(0.25, [0.0, 0.3])

    def test_root_far_below_the_scan(self):
        # the last bracket lies near 1e-270, where lo * hi underflows to 0
        sol = solve_xi_p(ModelParams(coupling=1.7103101553873027e-188), 0.3)
        assert abs(sol.xi_p / ref.XI_P_Q03_TINY - 1.0) <= 1e-13

    def test_tiny_couplings_do_not_raise(self):
        # away from q = 0.3 the smallest couplings have their roots below 1e-290
        lams = np.geomspace(1e-200, 1e-100, 100)
        for q in (0.3, 0.4, 0.5, 0.6, 0.7):
            batch = solve_batch(q, lams)
            for i, error in enumerate(batch.errors):
                if error is None:
                    assert batch.residual[i] <= 1e-13 * batch.rhs[i], (q, i)
                else:
                    assert "down to xi_p = 1e-290" in str(error), (q, i)
            assert batch.errors[-1] is None, q

    def test_window_edges_solve_without_warnings(self):
        # the evidence for the q window: at its edges every coupling down to 1e-300 gets a
        # root or a BracketError with no floating-point warning, where at q = 0.2 and 0.8
        # the slope-bound bracket overflows in (r / f) ** (1 / min(q, 1 - q))
        lams = np.unique([*np.geomspace(1e-300, 0.4999, 600), *np.linspace(1e-3, 0.4999, 300)])
        for q in (Q_MIN, Q_MAX):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                batch = solve_batch(q, lams)
            for x, error in zip(batch.xi_p.tolist(), batch.errors):
                assert (error is None and 0.0 < x < 1.0) or isinstance(error, BracketError), (q, x)
            assert 0 < sum(error is not None for error in batch.errors) < lams.size

    @settings(max_examples=30, deadline=None)
    @given(
        q=st.floats(0.3, 0.7),
        seed=st.integers(0, 2 ** 32 - 1),
        edges=_EDGE_COUPLINGS,
        refused=st.lists(st.floats(allow_nan=True).filter(lambda v: not 0.0 <= v <= LAMBDA_MAX),
                         max_size=8),
    )
    def test_rhs_matches_the_scalar_rhs(self, q, seed, edges, refused):
        # bit for bit over the window, and the scalar path's error text outside it
        lams = _window_couplings(seed, 500) + edges + refused
        batch = solve_batch(q, lams)
        for lam, rhs, error in zip(lams, batch.rhs.tolist(), batch.errors):
            if 0.0 <= lam <= LAMBDA_MAX:
                assert rhs.hex() == stationarity_rhs(ModelParams(coupling=lam)).hex(), lam
                assert not isinstance(error, DomainError), lam
            else:
                with pytest.raises(DomainError) as single:
                    stationarity_rhs(ModelParams(coupling=lam))
                assert isinstance(error, DomainError) and str(error) == str(single.value), lam
                assert math.isnan(rhs), lam

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.floats(0.3, 0.7),
        lams=st.lists(st.floats(1e-9, 0.4999), min_size=1, max_size=6),
    )
    def test_residual_property(self, q, lams):
        batch = solve_batch(q, lams)
        for i in range(len(lams)):
            sol = batch.solution(i)
            assert abs(stationarity_lhs(q, sol.xi_p) - sol.rhs) <= 1e-13 * max(1.0, sol.rhs)
            assert sol.residual <= 1e-13 * max(1.0, sol.rhs)


def _row(batch, i):
    """Row i of a batch by its bits: xi_p, residual, iterations and the error's type and text."""
    error = batch.errors[i]
    return (batch.xi_p.flat[i].hex(), batch.residual.flat[i].hex(), int(batch.iterations.flat[i]),
            None if error is None else (type(error), str(error)))


_EXPONENTS = st.lists(st.one_of(st.just(0.5), st.sampled_from([0.3, 0.7]), st.floats(0.3, 0.7)),
                      min_size=1, max_size=4)


class TestOneLoop:
    """One call over many (q, coupling) rows is one-row calls, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(qs=_EXPONENTS, seed=st.integers(0, 2 ** 32 - 1), edges=_EDGE_COUPLINGS,
           refused=st.lists(st.floats(allow_nan=True).filter(lambda v: not 0.0 <= v <= LAMBDA_MAX),
                            max_size=3))
    # Rows close at different steps, and the closed ones must hold still while the others
    # step: q = 1/2 rows close at step 0 or 1; of the slowest rows over 41 q in [0.3, 0.7],
    # 0.21173709273182958 takes 8 steps at q = 0.3 and 0.23150850354314298 takes 9 at
    # q = 0.43; 1e-300 falls below the root floor and 0.6 is refused before any step.
    @example(qs=[0.5], seed=0, edges=[], refused=[])
    @example(qs=[0.3, 0.43], seed=0, edges=[0.21173709273182958, 0.23150850354314298], refused=[])
    @example(qs=[0.3, 0.5], seed=1, edges=[0.21173709273182958, 1e-300], refused=[0.6])
    def test_rows_match_one_row_solves(self, qs, seed, edges, refused):
        # each coupling with one of the drawn exponents, and every exponent on every coupling
        lams = _window_couplings(seed, 12) + edges + refused
        per_row = np.random.default_rng(seed).choice(qs, len(lams))
        batch = solve_batch(per_row, lams)
        assert [_row(batch, i) for i in range(len(lams))] == [
            _row(solve_batch(q, [lam]), 0) for q, lam in zip(per_row.tolist(), lams)]
        grid = solve_batch(np.array(qs)[:, None], lams)
        assert grid.xi_p.shape == (len(qs), len(lams))
        assert [_row(grid, i) for i in range(grid.xi_p.size)] == [
            _row(solve_batch(q, [lam]), 0) for q in qs for lam in lams]

    def test_first_bad_exponent_in_c_order_is_named(self):
        for q, bad in (([0.4, 0.8, 0.2], 0.8), ([[0.2], [0.8]], 0.2), ([0.5, math.nan], "nan")):
            with pytest.raises(DomainError, match=rf"got {bad}$"):
                solve_batch(q, [0.1])

    def test_solution_indexes_the_flattened_rows(self):
        batch = solve_batch([[0.3], [0.5]], [0.1, 0.49995])
        assert batch.solution(2) == solve_xi_p(ModelParams(coupling=0.1), 0.5)
        with pytest.raises(DomainError, match="stationarity condition is defined"):
            batch.solution(3)


class TestCrossing:
    def test_crossings_bracket_the_reference_coupling(self):
        lam_04 = find_crossing(BASE, 0.4)
        lam_03 = find_crossing(BASE, 0.3)
        assert 0.29 < lam_03 < 0.31
        assert 0.30 < lam_04 < 0.33
        assert lam_03 < lam_04

    @pytest.mark.parametrize(
        "q, expect",
        [
            (0.3, ref.CROSSING_Q03),
            (0.4, ref.CROSSING_Q04),
            (0.45, ref.CROSSING_Q045),
            (0.499, ref.CROSSING_Q0499),
        ],
    )
    def test_matches_50_digit_crossing(self, q, expect):
        assert abs(find_crossing(BASE, q) - expect) <= 1e-12

    @pytest.mark.parametrize("q", [0.3, 0.4, 0.45, 0.499])
    def test_mirror_symmetry(self, q):
        assert abs(find_crossing(BASE, q) - find_crossing(BASE, 1.0 - q)) <= 1e-12

    @pytest.mark.parametrize("offset", [1e-7, 1e-9, 1e-12, 2.0**-53])
    def test_resolved_arbitrarily_close_to_half(self, offset):
        # the crossing moves by O((q - 1/2)^2) from its limit, below 1e-13 here
        for q in (0.5 - offset, 0.5 + offset):
            assert abs(find_crossing(BASE, q) - ref.CROSSING_LIMIT) <= 1e-12, q

    def test_crossing_is_a_ratio_root(self):
        for q in (0.3, 0.4, 0.6, 0.7):
            lam0 = find_crossing(BASE, q)
            p = ModelParams(coupling=lam0)
            f = derive_frequencies(p)
            sol = solve_xi_p(p, q)
            assert abs(sol.xi_p / f.xi - 1.0) <= 1e-12, q

    def test_ratio_changes_sign_around_the_crossing(self):
        lam0 = find_crossing(BASE, 0.3)
        for lam, sign in ((lam0 - 0.01, 1.0), (lam0 + 0.01, -1.0)):
            p = ModelParams(coupling=lam)
            f = derive_frequencies(p)
            sol = solve_xi_p(p, 0.3)
            assert math.copysign(1.0, sol.xi_p / f.xi - 1.0) == sign

    def test_newton_rate_next_to_half(self, monkeypatch):
        # the slope of the gap is O((q - 1/2)^2), written without cancellation
        calls = []
        gap = solver_module._crossing_gap
        monkeypatch.setattr(solver_module, "_crossing_gap", lambda q, xi: calls.append(q) or gap(q, xi))
        for offset in (1e-9, 1e-12, 2.0**-53):
            for q in (0.5 - offset, 0.5 + offset):
                calls.clear()
                find_crossing(BASE, q)
                assert len(calls) <= 15, q

    def test_degenerate_exponent(self):
        with pytest.raises(NoCrossingError, match="identically 1"):
            find_crossing(BASE, 0.5)

    def test_no_sign_change_in_the_bracket(self, monkeypatch):
        # both ends above the q = 0.4 crossing near coupling 0.3147
        monkeypatch.setattr(solver_module, "_CROSSING_COUPLINGS", (0.35, 0.45))
        with pytest.raises(NoCrossingError, match="rise through 0"):
            find_crossing(BASE, 0.4)

    def test_q_window(self):
        for q in (0.2, 0.29, 0.71, 0.8):
            with pytest.raises(DomainError):
                find_crossing(BASE, q)


class TestScaling:
    def test_exponents_match_theory(self):
        for q, expect in ((0.5, 2.0), (0.4, 5.0 / 3.0), (0.3, 10.0 / 7.0)):
            slope = scaling_exponent(BASE, q)
            assert abs(slope - expect) / expect < 0.02

    def test_mirror_symmetry(self):
        assert scaling_exponent(BASE, 0.6) == pytest.approx(
            scaling_exponent(BASE, 0.4), rel=1e-12
        )

    def test_matches_the_exact_least_squares_slope(self):
        # the slope in rationals over the same libm logs: the closed-form fit rounds by at
        # most about one ulp, where np.polyfit lost up to 2.3e-15
        couplings = solver_module._SCALING_COUPLINGS
        xs = [Fraction(math.log(lam)) for lam in couplings]
        x_bar = sum(xs) / len(xs)
        sxx = sum((x - x_bar) ** 2 for x in xs)
        for q in sorted({*np.linspace(0.3, 0.7, 41).tolist(), 0.5}):
            ys = [Fraction(math.log(root)) for root in solve_batch(q, couplings).xi_p.tolist()]
            y_bar = sum(ys) / len(ys)
            exact = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys)) / sxx
            assert abs(Fraction(scaling_exponent(BASE, q)) - exact) <= Fraction(2.3e-16) * exact, q
