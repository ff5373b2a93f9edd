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
    derive_frequencies,
    hermite_basis,
    occupation_spectrum,
    one_matrix,
    parametric_state,
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
        assert truncation_order(0.9) == 306
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
        assert hermite_basis(1, 1.3, x)[0] == pytest.approx(expect, rel=1e-14)

    def test_matches_explicit_normalization(self):
        # cross-check the recurrence against scipy's physicists' polynomials
        rng = np.random.default_rng(3)
        x = rng.uniform(-3, 3, 17)
        omega = 0.8
        u = math.sqrt(omega) * x
        for n in (1, 2, 5, 9):
            norm = (omega / math.pi) ** 0.25 / math.sqrt(2.0 ** n * math.gamma(n + 1))
            expect = norm * eval_hermite(n, u) * np.exp(-0.5 * u ** 2)
            assert hermite_basis(n + 1, omega, x)[n] == pytest.approx(expect, rel=1e-12)

    def test_orthonormality(self):
        # Gauss-Hermite with weight lifted onto the integrand is exact here
        t, w = np.polynomial.hermite.hermgauss(64)
        omega = 1.9
        x = t / math.sqrt(omega)
        basis = hermite_basis(13, omega, x)
        lifted = w * np.exp(t ** 2) / math.sqrt(omega)
        gram = np.einsum("g,ng,mg->nm", lifted, basis, basis)
        assert np.max(np.abs(gram - np.eye(13))) < 1e-12

    def test_scalar_input(self):
        basis = hermite_basis(4, 1.0, 0.5)
        assert basis.shape == (4,)
        assert basis[3] == pytest.approx(
            (1.0 / math.pi) ** 0.25 / math.sqrt(48.0) * eval_hermite(3, 0.5) * math.exp(-0.125),
            rel=1e-13,
        )

    def test_bad_args(self):
        with pytest.raises(DomainError):
            hermite_basis(0, 1.0, 0.0)
        with pytest.raises(DomainError):
            hermite_basis(3, 0.0, 0.0)


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
        expect = hermite_basis(1, 2.0, x)[0] * hermite_basis(1, 2.0, xp)[0]
        assert one_matrix(s, 2.0, 1.0, x, xp) == pytest.approx(expect, rel=1e-14)

    def test_diagonal_is_density(self):
        s = occupation_spectrum(0.3)
        x = np.linspace(-2, 2, 9)
        diag = one_matrix(s, 1.4, 1.0, x, x)
        squares = np.einsum("n,nx->x", s.weights, hermite_basis(s.truncation, 1.4, x) ** 2)
        assert diag == pytest.approx(squares, rel=1e-13)

    @pytest.mark.parametrize("xi", [0.0, 0.05, 0.4])
    def test_diagonal_from_one_basis_keeps_its_bits(self, xi):
        # one_matrix builds one basis when xp is x
        s = occupation_spectrum(xi)
        for x in (np.linspace(-4.0, 4.0, 96), np.linspace(-2.0, 2.0, 12).reshape(3, 4)):
            assert np.array_equal(one_matrix(s, 1.3, 1.0, x, x), one_matrix(s, 1.3, 1.0, x, x.copy()))

    def test_bad_power(self):
        with pytest.raises(DomainError):
            one_matrix(occupation_spectrum(0.1), 1.0, 0.0, 0.0, 0.0)


def _diagonal(xi_p: float, omega_p: float, x):
    """The one-matrix diagonal sum_n P_n phi_n(x)^2 of the family member (xi_p, omega_p)."""
    return one_matrix(occupation_spectrum(xi_p), omega_p, 1.0, x, x)


class TestDensityConstraint:
    def test_width_constraint_reproduces_exact_density(self):
        # any xi_p paired with omega_p from the constraint leaves the
        # density invariant; xi_p = 0.6 needs 64 series terms
        x = np.linspace(-3, 3, 31)
        exact = density(ModelParams(coupling=0.3), x)
        for xi_p in (0.0, 0.1, 0.6):
            omega_p = parametric_state(F03.omega_s, 0.5, xi_p).omega_p
            assert np.max(np.abs(_diagonal(xi_p, omega_p, x) - exact)) < 1e-8

    def test_exact_point_reproduces_density(self):
        x = np.linspace(-3, 3, 31)
        exact = density(ModelParams(coupling=0.3), x)
        assert np.max(np.abs(_diagonal(F03.xi, F03.omega_bar, x) - exact)) < 1e-10

    def test_wrong_frequency_breaks_the_density(self):
        omega_bad = 1.2 * parametric_state(F03.omega_s, 0.5, 0.2).omega_p
        approx = _diagonal(0.2, omega_bad, 0.0)
        assert abs(approx - density(ModelParams(coupling=0.3), 0.0)) > 1e-3

    def test_zero_xi_p_is_the_plain_gaussian(self):
        omega_p = parametric_state(F03.omega_s, 0.5, 0.0).omega_p
        assert omega_p == F03.omega_s
        val = _diagonal(0.0, omega_p, 0.55)
        assert val == pytest.approx(density(ModelParams(coupling=0.3), 0.55), rel=1e-14)


class TestParametricState:
    def test_constraint_built_in(self):
        st_ = parametric_state(F03.omega_s, 0.4, 0.25)
        assert st_.omega_p == pytest.approx(F03.omega_s * 1.25 / 0.75, rel=1e-15)

    def test_schmidt_state_is_the_exact_point(self):
        st_ = parametric_state(F03.omega_s, 0.5, F03.xi)
        assert st_.xi_p == F03.xi
        assert st_.omega_p == pytest.approx(F03.omega_bar, rel=1e-13)

    def test_validation(self):
        with pytest.raises(DomainError):
            ParametricState(q=0.5, xi_p=1.0, omega_p=1.0)
        with pytest.raises(DomainError):
            ParametricState(q=0.0, xi_p=0.1, omega_p=1.0)
        with pytest.raises(DomainError):
            ParametricState(q=1.0, xi_p=0.1, omega_p=1.0)
        with pytest.raises(DomainError, match="omega_p must be positive"):
            ParametricState(0.4, 0.1, 0.0)
        with pytest.raises(DomainError, match="omega_s"):
            parametric_state(0.0, 0.5, 0.1)
        # xi_p is checked before the constraint divides by 1 - xi_p
        with pytest.raises(DomainError, match="xi_p"):
            parametric_state(1.0, 0.5, 1.0)
