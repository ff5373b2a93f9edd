import math

import numpy as np
import pytest

import reference_values as ref
from harmonium import (
    AccuracyWarning,
    DomainError,
    KernelSpec,
    ModelParams,
    brute_force_minimize,
    density,
    derive_frequencies,
    gauss_hermite_rule,
    hamiltonian_expectation_numeric,
    kernel_integral_numeric,
    kernel_interaction_numeric,
    kinetic_parametric,
    occupation_spectrum,
    one_matrix,
    one_matrix_numeric,
    parametric_state,
    run_verification,
    schmidt_state,
    solve_xi_p,
    spectral_kinetic_sum,
)
from harmonium.oracle import quad_1d, quad_2d, reference_basis
from harmonium.spectral import hermite_basis

P03 = ModelParams(coupling=0.3)


class TestRules:
    def test_gauss_hermite_nontrivial_integral(self):
        # integral of exp(-x^2) cos(2x) = sqrt(pi) exp(-1)
        rule = gauss_hermite_rule(64)
        got = quad_1d(rule, np.exp(-rule.nodes ** 2) * np.cos(2.0 * rule.nodes))
        assert got == pytest.approx(math.sqrt(math.pi) * math.exp(-1.0), rel=1e-12)

    def test_gauss_hermite_scale_mapping(self):
        # integral of x^2 exp(-3x^2) = sqrt(pi/3)/6
        rule = gauss_hermite_rule(64, scale=3.0)
        got = quad_1d(rule, rule.nodes ** 2 * np.exp(-3.0 * rule.nodes ** 2))
        assert got == pytest.approx(math.sqrt(math.pi / 3.0) / 6.0, rel=1e-12)

    def test_gauss_hermite_valid_up_to_the_node_cap(self):
        # weights stay finite and positive and the Gaussian moments 0, 2, 4
        # come out exact for every count up to 370; 371 nodes are refused
        moments = {0: math.sqrt(math.pi), 2: math.sqrt(math.pi) / 2, 4: 0.75 * math.sqrt(math.pi)}
        for count in range(2, 371):
            rule = gauss_hermite_rule(count)
            assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights > 0.0)
            gauss = np.exp(-rule.nodes ** 2)
            for k, exact in moments.items():
                if k < 2 * count:
                    value = quad_1d(rule, rule.nodes ** k * gauss)
                    assert abs(value / exact - 1.0) <= 1e-13, (count, k)
        with pytest.raises(DomainError, match="370"):
            gauss_hermite_rule(371)

    def test_gauss_hermite_validation(self):
        with pytest.raises(DomainError):
            gauss_hermite_rule(1)
        with pytest.raises(DomainError):
            gauss_hermite_rule(64, scale=0.0)

    def test_rules_agree_on_density_norm(self):
        f = derive_frequencies(P03)
        gh = gauss_hermite_rule(96, f.omega_s)
        a = quad_1d(gh, density(P03, gh.nodes))
        assert a == pytest.approx(1.0, abs=1e-10)

    def test_quad_2d_separable(self):
        rule = gauss_hermite_rule(48)
        vals = np.exp(-np.add.outer(rule.nodes ** 2, rule.nodes ** 2))
        assert quad_2d(rule, vals) == pytest.approx(math.pi, rel=1e-12)


class TestReferenceBasis:
    def test_matches_recurrence_basis(self):
        x = np.linspace(-4.0, 4.0, 41)
        a = reference_basis(32, 0.77, x)
        b = hermite_basis(32, 0.77, x)
        assert a == pytest.approx(b, abs=1e-12)

    def test_orthonormal_under_quadrature(self):
        omega = 1.3
        rule = gauss_hermite_rule(96, omega)
        basis = reference_basis(12, omega, rule.nodes)
        gram = np.einsum("g,ng,mg->nm", rule.weights, basis, basis)
        assert gram == pytest.approx(np.eye(12), abs=1e-12)

    def test_order_bounds(self):
        with pytest.raises(DomainError):
            reference_basis(0, 1.0, 0.0)
        with pytest.raises(DomainError):
            reference_basis(171, 1.0, 0.0)


class TestOneMatrixNumeric:
    def test_reference_point(self):
        got = one_matrix_numeric(P03, 0.7, -0.4, check=False)
        assert got == pytest.approx(ref.GAMMA_07_M04_03, abs=1e-10)

    def test_diagonal_is_density(self):
        for x in (-1.5, 0.0, 0.8):
            got = one_matrix_numeric(P03, x, x, check=False)
            assert got == pytest.approx(density(P03, x), abs=1e-10)

    def test_matches_series(self):
        f = derive_frequencies(P03)
        spectrum = occupation_spectrum(f.xi, 1e-14)
        for x, xp in ((0.3, 1.1), (-2.0, 0.5), (1.7, 1.7)):
            series = one_matrix(spectrum, f.omega_bar, 1.0, x, xp)
            integral = one_matrix_numeric(P03, x, xp, check=False)
            assert integral == pytest.approx(series, abs=1e-10)

    def test_oracle_window(self):
        with pytest.raises(DomainError):
            one_matrix_numeric(ModelParams(coupling=0.46), 0.0, 0.0)

    def test_coarse_rule_warns(self):
        rule = gauss_hermite_rule(8, 1.0)
        with pytest.warns(AccuracyWarning):
            one_matrix_numeric(P03, 0.7, -0.4, rule=rule, check=True)


class TestHamiltonianNumeric:
    def test_terms_match_closed_form(self):
        e = hamiltonian_expectation_numeric(P03, check=False)
        assert e.kinetic == pytest.approx(ref.E_KINETIC_03, rel=1e-8)
        assert e.external == pytest.approx(ref.E_EXTERNAL_03, rel=1e-8)
        assert e.interaction == pytest.approx(ref.E_INTERACTION_03, rel=1e-8)
        assert e.total == pytest.approx(ref.E_TOTAL_03, rel=1e-10)

    def test_virial_balance(self):
        # for the quadratic Hamiltonian the kinetic term equals the sum of
        # the potential terms in the ground state
        e = hamiltonian_expectation_numeric(P03, check=False)
        assert e.kinetic == pytest.approx(e.external + e.interaction, abs=1e-10)

    def test_scale_covariance(self):
        e = hamiltonian_expectation_numeric(ModelParams(omega0=2.0, coupling=0.3), check=False)
        assert e.total == pytest.approx(ref.E_TOTAL_03_W2, rel=1e-10)

    def test_coarse_rule_warns(self):
        with pytest.warns(AccuracyWarning):
            hamiltonian_expectation_numeric(P03, rule=gauss_hermite_rule(8, 1.0))


class TestKineticSum:
    def test_matches_closed_form(self):
        f = derive_frequencies(P03)
        for xi_p in (0.0, 0.1, 0.3):
            omega_p = f.omega_s * (1.0 + xi_p) / (1.0 - xi_p)
            got = spectral_kinetic_sum(xi_p, omega_p)
            want = kinetic_parametric(f.omega_s, xi_p)
            assert got == pytest.approx(want, rel=1e-10)

    def test_at_the_exact_state(self):
        f = derive_frequencies(P03)
        st = schmidt_state(f, 0.5)
        got = spectral_kinetic_sum(st.xi_p, st.omega_p)
        assert got == pytest.approx(kinetic_parametric(f.omega_s, f.xi), rel=1e-10)


class TestKernelNumeric:
    def test_interaction_at_exact_state(self):
        f = derive_frequencies(P03)
        st = schmidt_state(f, 0.5)
        got = kernel_interaction_numeric(P03, KernelSpec.sum_one(0.5), st, check=False)
        assert got == pytest.approx(ref.E_INTERACTION_03, rel=1e-7)

    def test_interaction_at_stationary_point(self):
        from harmonium import energy_parametric

        spec = KernelSpec.sum_one(0.4)
        sol = solve_xi_p(P03, 0.4)
        f = derive_frequencies(P03)
        st = parametric_state(f.omega_s, 0.4, sol.xi_p)
        got = kernel_interaction_numeric(P03, spec, st, check=False)
        want = energy_parametric(P03, spec, sol.xi_p).interaction
        assert got == pytest.approx(want, rel=1e-7)

    def test_equal_powers_interaction(self):
        from harmonium import energy_parametric

        spec = KernelSpec.equal_powers(0.6)
        f = derive_frequencies(P03)
        st = schmidt_state(f, 0.6, r=0.6)
        got = kernel_interaction_numeric(P03, spec, st, check=False)
        want = energy_parametric(P03, spec, f.xi).interaction
        assert got == pytest.approx(want, rel=1e-7)

    def test_mass_sum_one(self):
        f = derive_frequencies(P03)
        st = schmidt_state(f, 0.5)
        got = kernel_integral_numeric(P03, KernelSpec.sum_one(0.5), st)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_mass_equal_powers(self):
        f = derive_frequencies(P03)
        st = schmidt_state(f, 0.6, r=0.6)
        got = kernel_integral_numeric(P03, KernelSpec.equal_powers(0.6), st)
        assert got == pytest.approx(2.0 - ref.KERNEL_NORM_EQ_Q06_03, abs=1e-9)


class TestBruteForce:
    def test_uncoupled_minimum(self):
        xi, e = brute_force_minimize(ModelParams(), KernelSpec.sum_one(0.5))
        assert xi == pytest.approx(0.0, abs=1e-9)
        # the boundary minimum is located to xtol, so the energy inherits O(xtol)
        assert e == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_root(self):
        for q, root in ((0.5, ref.XI_03), (0.4, ref.XI_P_Q04_03)):
            xi, e = brute_force_minimize(P03, KernelSpec.sum_one(q))
            assert xi == pytest.approx(root, abs=1e-6)
        xi, e = brute_force_minimize(P03, KernelSpec.sum_one(0.5))
        assert e == pytest.approx(ref.E_TOTAL_03, rel=1e-10)


@pytest.fixture(scope="module")
def default_report():
    return run_verification()


class TestVerification:
    def test_all_pass(self, default_report):
        failed = [c["check"] for c in default_report if not c["pass"]]
        assert failed == []

    def test_coverage(self, default_report):
        names = " ".join(c["check"] for c in default_report)
        for fragment in (
            "psi_norm", "density_norm", "one_matrix_trace", "one_matrix_lattice",
            "hamiltonian_total", "virial_balance", "node_doubling_hamiltonian",
            "kinetic_sum", "kernel_interaction", "node_doubling_kernel",
            "kernel_mass", "scan_vs_root",
        ):
            assert fragment in names

    def test_entry_schema(self, default_report):
        for c in default_report:
            assert set(c) == {"check", "value", "reference", "error", "tolerance", "pass"}
            assert isinstance(c["pass"], bool)

    def test_tamper_is_detected(self):
        report = run_verification(lambdas=(0.3,), qs=(0.5,), tamper=True)
        by_name = {c["check"]: c for c in report}
        assert not by_name["hamiltonian_total[lam=0.3]"]["pass"]
        assert not by_name["kernel_interaction[lam=0.3,q=0.5]"]["pass"]
        # untouched checks keep passing, so the skew is the only failure mode
        assert by_name["psi_norm[lam=0.3]"]["pass"]
        assert by_name["scan_vs_root[lam=0.3,q=0.5]"]["pass"]

    def test_strong_coupling_window(self):
        report = run_verification(lambdas=(0.45,), qs=(0.5,))
        failed = [c["check"] for c in report if not c["pass"]]
        assert failed == []
