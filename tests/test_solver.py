import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_values as ref
from harmonium import solver as solver_module
from harmonium import (
    BracketError,
    DomainError,
    ModelParams,
    NoCrossingError,
    derive_frequencies,
    find_crossing,
    scaling_exponent,
    solve_batch,
    solve_xi_p,
    stationarity_lhs,
    stationarity_rhs,
    sweep,
)

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

    def test_lhs_monotone_on_scan_window(self):
        xi = np.geomspace(1e-12, 1.0 - 1e-9, 500)
        for q in (0.3, 0.5, 0.7):
            assert np.all(np.diff(stationarity_lhs(q, xi)) > 0.0)

    def test_lhs_domain(self):
        with pytest.raises(DomainError):
            stationarity_lhs(0.5, 0.0)
        with pytest.raises(DomainError):
            stationarity_lhs(0.5, 1.0)
        with pytest.raises(DomainError):
            stationarity_lhs(0.0, 0.5)


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
        assert sol.coupling == 0.3 and sol.q == 0.4
        assert sol.rhs == pytest.approx(ref.RHS_03, rel=1e-14)
        assert 0 < sol.iterations < 200

    def test_q_window(self):
        for q in (0.25, 0.75, 0.0, 1.0):
            with pytest.raises(DomainError):
                solve_xi_p(P03, q)

    def test_tol_floor(self):
        with pytest.raises(DomainError):
            solve_xi_p(P03, 0.5, tol=1e-16)

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


class TestSweep:
    def test_ordering_and_shape(self):
        recs = sweep(BASE, [0.5, 0.4], [0.3, 0.1, 0.2])
        assert len(recs) == 6
        assert [r.q for r in recs] == [0.4, 0.4, 0.4, 0.5, 0.5, 0.5]
        assert [r.coupling for r in recs] == [0.1, 0.2, 0.3, 0.1, 0.2, 0.3]

    def test_record_content(self):
        recs = sweep(BASE, [0.5], [0.3])
        r = recs[0]
        f = derive_frequencies(P03)
        assert r.xi == pytest.approx(f.xi, rel=1e-14)
        assert r.ratio == pytest.approx(1.0, abs=1e-10)
        assert r.e_p_total == pytest.approx(ref.E_TOTAL_03, rel=1e-12)
        assert r.e_ex_total == pytest.approx(ref.E_TOTAL_03, rel=1e-13)
        assert r.dual_coupling == pytest.approx(ref.DUAL_COUPLING_03, rel=1e-14)
        assert r.dual_linear_entropy == pytest.approx(r.linear_entropy_exact, abs=1e-12)
        assert r.error is None

    def test_failures_are_recorded_not_raised(self):
        recs = sweep(BASE, [0.5], [0.3, 0.49995])
        good = [r for r in recs if r.error is None]
        bad = [r for r in recs if r.error is not None]
        assert len(good) == 1 and len(bad) == 1
        assert math.isnan(bad[0].xi_p)
        assert "coupling" in bad[0].error

    def test_uncoupled_row_has_undefined_ratio(self):
        r = sweep(BASE, [0.5], [0.0])[0]
        assert r.xi_p == 0.0 and math.isnan(r.ratio)
        assert math.isnan(r.dual_coupling)
        assert r.error is None

    def test_tiny_coupling_ratio_at_square_root_exponent(self):
        # xi and xi_p both keep their relative accuracy at coupling 1e-9
        r = sweep(BASE, [0.5], [1e-9])[0]
        assert abs(r.ratio - 1.0) <= 1e-13


class TestBatch:
    LAMS = [0.0, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3, 0.45, 0.4999]

    def test_rows_match_single_solves_bit_for_bit(self):
        for omega0 in (1.0, 2.0):
            for q in (0.3, 0.45, 0.5, 0.6, 0.7):
                batch = solve_batch(q, self.LAMS, omega0)
                for i, lam in enumerate(self.LAMS):
                    single = solve_xi_p(ModelParams(omega0=omega0, coupling=lam), q)
                    assert batch.solution(i) == single

    def test_iteration_count(self):
        for q in (0.3, 0.4, 0.5, 0.6, 0.7):
            batch = solve_batch(q, np.geomspace(1e-9, 0.4999, 64))
            assert all(e is None for e in batch.errors)
            assert batch.iterations.max() <= 10

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

    def test_failed_walk_fails_only_its_row(self, monkeypatch):
        # the q = 1/2 root at coupling 1e-9 is 6.25e-20, below a floor of 1e-16
        monkeypatch.setattr(solver_module, "_WALK_FLOOR", 1e-16)
        batch = solve_batch(0.5, [1e-9, 1e-6, 0.3])
        assert isinstance(batch.errors[0], BracketError)
        assert "down to xi_p = 1e-16" in str(batch.errors[0])
        assert math.isnan(batch.xi_p[0])
        assert batch.errors[1] is None and batch.errors[2] is None
        assert batch.xi_p[2] == solve_xi_p(P03, 0.5).xi_p

    def test_missing_sign_change_fails_only_its_row(self, monkeypatch):
        # a scan window that ends below the q = 0.4 root at coupling 0.3
        monkeypatch.setattr(solver_module, "_SCAN", np.geomspace(1e-12, 0.005, 2048))
        batch = solve_batch(0.4, [0.01, 0.3])
        assert batch.errors[0] is None
        assert batch.xi_p[0] == pytest.approx(solve_xi_p(ModelParams(coupling=0.01), 0.4).xi_p, rel=1e-14)
        assert isinstance(batch.errors[1], BracketError)
        assert "no sign change" in str(batch.errors[1]) and "0.005" in str(batch.errors[1])
        with pytest.raises(BracketError):
            batch.solution(1)

    def test_non_monotone_scan_fails_every_row(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_SCAN", np.geomspace(1e-12, 1.0 - 1e-9, 2048)[::-1])
        batch = solve_batch(0.4, [0.0, 1e-9, 0.3, 0.49995])
        assert batch.errors[0] is None and batch.xi_p[0] == 0.0
        for i in (1, 2):
            assert isinstance(batch.errors[i], BracketError)
            assert "not increasing" in str(batch.errors[i])
        assert isinstance(batch.errors[3], DomainError)

    def test_exponent_and_tol_fail_every_row(self):
        for q, tol in ((0.25, 1e-15), (0.4, 1e-16)):
            batch = solve_batch(q, [0.0, 0.3], tol=tol)
            for i in range(2):
                with pytest.raises(DomainError):
                    batch.solution(i)

    def test_tol_is_the_bracket_width(self):
        tight = solve_batch(0.4, self.LAMS[1:])
        loose = solve_batch(0.4, self.LAMS[1:], tol=1e-6)
        assert np.all(np.abs(loose.xi_p / tight.xi_p - 1.0) <= 1e-6)

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


class TestCrossing:
    def test_crossings_bracket_the_reference_coupling(self):
        lam_04 = find_crossing(BASE, 0.4)
        lam_03 = find_crossing(BASE, 0.3)
        assert 0.29 < lam_03 < 0.31
        assert 0.30 < lam_04 < 0.33
        assert lam_03 < lam_04

    def test_crossing_is_a_ratio_root(self):
        lam0 = find_crossing(BASE, 0.4)
        p = ModelParams(coupling=lam0)
        f = derive_frequencies(p)
        sol = solve_xi_p(p, 0.4)
        assert abs(sol.xi_p / f.xi - 1.0) <= 1e-9

    def test_ratio_changes_sign_around_the_crossing(self):
        lam0 = find_crossing(BASE, 0.3)
        for lam, sign in ((lam0 - 0.01, 1.0), (lam0 + 0.01, -1.0)):
            p = ModelParams(coupling=lam)
            f = derive_frequencies(p)
            sol = solve_xi_p(p, 0.3)
            assert math.copysign(1.0, sol.xi_p / f.xi - 1.0) == sign

    def test_degenerate_exponent(self):
        with pytest.raises(NoCrossingError, match="identically 1"):
            find_crossing(BASE, 0.5)

    def test_q_window(self):
        with pytest.raises(DomainError):
            find_crossing(BASE, 0.2)


class TestScaling:
    def test_exponents_match_theory(self):
        for q, expect in ((0.5, 2.0), (0.4, 5.0 / 3.0), (0.3, 10.0 / 7.0)):
            slope = scaling_exponent(BASE, q)
            assert abs(slope - expect) / expect < 0.02

    def test_mirror_symmetry(self):
        assert scaling_exponent(BASE, 0.6) == pytest.approx(
            scaling_exponent(BASE, 0.4), rel=1e-12
        )
