import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite

import reference_values as ref
from harmonium import (
    DomainError,
    ModelParams,
    ParametricState,
    density,
    density_from_spectrum,
    derive_frequencies,
    hermite_basis,
    hermite_orbital,
    occupation_spectrum,
    omega_p_from_constraint,
    one_matrix,
    parametric_state,
    schmidt_state,
    truncation_order,
)

F03 = derive_frequencies(ModelParams(coupling=0.3))


class TestSpectrum:
    def test_uncorrelated(self):
        s = occupation_spectrum(0.0)
        assert s.truncation == 16
        assert s.tail_mass == 0.0
        assert s.weights[0] == 1.0
        assert np.all(s.weights[1:] == 0.0)

    def test_weights_are_geometric(self):
        s = occupation_spectrum(0.37)
        assert s.weights[0] == pytest.approx(0.63, rel=1e-15)
        ratios = s.weights[1:] / s.weights[:-1]
        assert ratios == pytest.approx(np.full(s.truncation - 1, 0.37), rel=1e-13)
        assert np.all(np.diff(s.weights) < 0.0)
        assert np.all(s.weights > 0.0)

    def test_mass_splits_into_sum_plus_tail(self):
        for xi in (1e-6, 0.013, 0.37, 0.9, 0.999):
            s = occupation_spectrum(xi)
            assert math.fsum(s.weights) + s.tail_mass == pytest.approx(1.0, abs=1e-13)

    def test_truncation_orders(self):
        assert truncation_order(0.9, 1e-14) == 306
        assert occupation_spectrum(0.9).truncation == 306
        # reference-point xi is small enough to hit the lower clamp
        assert occupation_spectrum(ref.XI_03).truncation == 16

    def test_upper_clamp(self):
        s = occupation_spectrum(0.999)
        assert s.truncation == 512
        assert s.tail_mass == pytest.approx(0.999 ** 512, rel=1e-12)

    @pytest.mark.parametrize("xi", [-0.1, 1.0, 1.5])
    def test_bad_xi(self, xi):
        with pytest.raises(DomainError):
            occupation_spectrum(xi)

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            occupation_spectrum(0.5, tol=0.0)

    @settings(max_examples=150, deadline=None)
    @given(xi=st.floats(0.0, 0.995))
    def test_mass_property(self, xi):
        s = occupation_spectrum(xi)
        assert math.fsum(s.weights) + s.tail_mass == pytest.approx(1.0, abs=1e-12)
        assert s.tail_mass <= 1e-14 or s.truncation == 512


class TestHermite:
    def test_ground_state(self):
        x = np.linspace(-2, 2, 7)
        expect = (1.3 / math.pi) ** 0.25 * np.exp(-0.65 * x ** 2)
        assert hermite_orbital(0, 1.3, x) == pytest.approx(expect, rel=1e-14)

    def test_matches_explicit_normalization(self):
        # cross-check the recurrence against scipy's physicists' polynomials
        rng = np.random.default_rng(3)
        x = rng.uniform(-3, 3, 17)
        omega = 0.8
        u = math.sqrt(omega) * x
        for n in (1, 2, 5, 9):
            norm = (omega / math.pi) ** 0.25 / math.sqrt(2.0 ** n * math.gamma(n + 1))
            expect = norm * eval_hermite(n, u) * np.exp(-0.5 * u ** 2)
            assert hermite_orbital(n, omega, x) == pytest.approx(expect, rel=1e-12)

    def test_orthonormality(self):
        # Gauss-Hermite with weight lifted onto the integrand is exact here
        t, w = np.polynomial.hermite.hermgauss(64)
        omega = 1.9
        x = t / math.sqrt(omega)
        basis = hermite_basis(13, omega, x)
        lifted = w * np.exp(t ** 2) / math.sqrt(omega)
        gram = np.einsum("g,ng,mg->nm", lifted, basis, basis)
        assert np.max(np.abs(gram - np.eye(13))) < 1e-12

    def test_basis_rows_match_orbitals(self):
        x = np.linspace(-1.5, 1.5, 5)
        basis = hermite_basis(6, 0.7, x)
        for n in range(6):
            assert basis[n] == pytest.approx(hermite_orbital(n, 0.7, x), rel=1e-13, abs=1e-15)

    def test_scalar_input(self):
        assert isinstance(hermite_orbital(3, 1.0, 0.5), float)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            hermite_orbital(-1, 1.0, 0.0)
        with pytest.raises(DomainError):
            hermite_orbital(2, 0.0, 0.0)


class TestOneMatrix:
    def test_series_hits_closed_contraction(self):
        s = occupation_spectrum(F03.xi)
        val = one_matrix(s, F03.omega_bar, 1.0, 0.7, -0.4)
        assert val == pytest.approx(ref.GAMMA_07_M04_03, rel=1e-12)

    def test_symmetry_and_shape(self):
        s = occupation_spectrum(0.2)
        x = np.linspace(-2, 2, 6)
        a = one_matrix(s, 1.1, 0.5, x, 0.3)
        b = one_matrix(s, 1.1, 0.5, 0.3, x)
        assert a == pytest.approx(b, rel=1e-14)
        assert a.shape == (6,)

    def test_uncorrelated_rank_one(self):
        s = occupation_spectrum(0.0)
        x, xp = 0.4, -0.9
        expect = hermite_orbital(0, 2.0, x) * hermite_orbital(0, 2.0, xp)
        assert one_matrix(s, 2.0, 1.0, x, xp) == pytest.approx(expect, rel=1e-14)

    def test_diagonal_is_density(self):
        s = occupation_spectrum(0.3)
        x = np.linspace(-2, 2, 9)
        diag = one_matrix(s, 1.4, 1.0, x, x)
        assert diag == pytest.approx(density_from_spectrum(s, 1.4, x), rel=1e-13)

    def test_bad_power(self):
        with pytest.raises(DomainError):
            one_matrix(occupation_spectrum(0.1), 1.0, 0.0, 0.0, 0.0)


class TestDensityConstraint:
    def test_width_constraint_reproduces_exact_density(self):
        # any xi_p paired with omega_p from the constraint leaves the
        # density invariant; xi_p = 0.6 needs 64 series terms
        x = np.linspace(-3, 3, 31)
        exact = density(ModelParams(coupling=0.3), x)
        for xi_p in (0.0, 0.1, 0.6):
            omega_p = omega_p_from_constraint(F03.omega_s, xi_p)
            approx = density_from_spectrum(occupation_spectrum(xi_p), omega_p, x)
            assert np.max(np.abs(approx - exact)) < 1e-8

    def test_exact_point_reproduces_density(self):
        x = np.linspace(-3, 3, 31)
        exact = density(ModelParams(coupling=0.3), x)
        approx = density_from_spectrum(occupation_spectrum(F03.xi), F03.omega_bar, x)
        assert np.max(np.abs(approx - exact)) < 1e-10

    def test_wrong_frequency_breaks_the_density(self):
        omega_bad = 1.2 * omega_p_from_constraint(F03.omega_s, 0.2)
        approx = density_from_spectrum(occupation_spectrum(0.2), omega_bad, 0.0)
        assert abs(approx - density(ModelParams(coupling=0.3), 0.0)) > 1e-3

    def test_zero_xi_p_is_the_plain_gaussian(self):
        omega_p = omega_p_from_constraint(F03.omega_s, 0.0)
        assert omega_p == F03.omega_s
        val = density_from_spectrum(occupation_spectrum(0.0), omega_p, 0.55)
        assert val == pytest.approx(density(ModelParams(coupling=0.3), 0.55), rel=1e-14)


class TestParametricState:
    def test_constraint_built_in(self):
        st_ = parametric_state(F03.omega_s, 0.4, 0.25)
        assert st_.omega_p == pytest.approx(F03.omega_s * 1.25 / 0.75, rel=1e-15)

    def test_schmidt_state_is_the_exact_point(self):
        st_ = schmidt_state(F03, 0.5)
        assert st_.xi_p == F03.xi
        assert st_.omega_p == F03.omega_bar
        constraint = omega_p_from_constraint(F03.omega_s, F03.xi)
        assert st_.omega_p == pytest.approx(constraint, rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            ParametricState(q=0.5, xi_p=1.0, omega_p=1.0)
        with pytest.raises(DomainError):
            ParametricState(q=0.0, xi_p=0.1, omega_p=1.0)
        with pytest.raises(DomainError):
            ParametricState(q=1.0, xi_p=0.1, omega_p=1.0)
        with pytest.raises(DomainError):
            omega_p_from_constraint(0.0, 0.1)
        with pytest.raises(DomainError):
            omega_p_from_constraint(1.0, 1.0)
