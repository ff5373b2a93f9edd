import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_values as ref
from harmonium import (
    DomainError,
    KernelSpec,
    ModelParams,
    density,
    derive_frequencies,
    energy_parametric,
    gauss_hermite_rule,
    interaction_bracket,
    kinetic_parametric,
    parametric_state,
)
from harmonium.oracle import _kernel_on_grid

P03 = ModelParams(coupling=0.3)
F03 = derive_frequencies(P03)


class TestKernelSpec:
    def test_sum_one_ties_r(self):
        spec = KernelSpec.sum_one(0.4)
        assert spec.r == pytest.approx(0.6, rel=1e-15)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.3])
    def test_power_window(self, q):
        with pytest.raises(DomainError):
            KernelSpec.sum_one(q)

    @settings(max_examples=500, deadline=None)
    @given(q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(q=2.0 ** -53)
    @example(q=2.0 ** -54)
    @example(q=0.5 - 2.0 ** -54)
    @example(q=1.0 - 2.0 ** -53)
    def test_powers_sum_to_exactly_one(self, q):
        # the kernel mass (1-xi)^(q+r) / (1-xi^(q+r)) is 1 because q + r is 1 to the bit
        if 1.0 - q == 1.0:
            # q <= 2^-54: r rounds to 1, which lies outside (0, 1)
            with pytest.raises(DomainError):
                KernelSpec.sum_one(q)
            return
        spec = KernelSpec.sum_one(q)
        assert spec.q + spec.r == 1.0


class TestBrackets:
    def test_reference_value(self):
        assert interaction_bracket(0.5, ref.XI_03) == pytest.approx(
            ref.BRACKET_Q05_03, rel=1e-14
        )

    def test_square_root_point_matches_frequency_ratio(self):
        # at (1/2, xi) the bracket is exactly 2 - omega_s/omega1
        for lam in (0.05, 0.2, 0.3, 0.45):
            f = derive_frequencies(ModelParams(coupling=lam))
            assert interaction_bracket(0.5, f.xi) == pytest.approx(
                2.0 - f.omega_s / f.omega1, rel=1e-13
            )

    def test_uncorrelated_value(self):
        assert interaction_bracket(0.37, 0.0) == 1.0

    def test_exponent_symmetry(self):
        for xi in (0.01, 0.2, 0.7):
            assert interaction_bracket(0.3, xi) == pytest.approx(
                interaction_bracket(0.7, xi), rel=1e-14
            )

    def test_range(self):
        xi = np.linspace(0.0, 0.99, 40)
        vals = np.array([interaction_bracket(0.4, v) for v in xi])
        assert np.all(vals >= 1.0) and np.all(vals < 2.0)

    @settings(max_examples=150, deadline=None)
    @given(q=st.floats(0.05, 0.95), xi=st.floats(0.0, 0.99))
    def test_symmetry_property(self, q, xi):
        assert interaction_bracket(q, xi) == pytest.approx(
            interaction_bracket(1.0 - q, xi), rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            interaction_bracket(0.5, 1.0)
        with pytest.raises(DomainError):
            interaction_bracket(1.0, 0.5)


class TestKinetic:
    def test_uncorrelated(self):
        assert kinetic_parametric(F03.omega_s, 0.0) == 0.5 * F03.omega_s

    def test_exact_point_value(self):
        assert kinetic_parametric(F03.omega_s, F03.xi) == pytest.approx(
            ref.E_KINETIC_03, rel=1e-13
        )

    def test_strictly_increasing(self):
        xi = np.linspace(0.0, 0.99, 200)
        vals = np.array([kinetic_parametric(1.0, v) for v in xi])
        assert np.all(np.diff(vals) > 0.0)

    def test_pole_guard(self):
        with pytest.raises(DomainError):
            kinetic_parametric(1.0, 1.0 - 1e-12)
        with pytest.raises(DomainError):
            kinetic_parametric(1.0, -0.1)
        for bad in (1.0 - 1e-12, -0.1, float("nan")):
            with pytest.raises(DomainError):
                kinetic_parametric(1.0, np.array([0.1, bad]))

    @pytest.mark.parametrize("omega_s", [0.0, float("nan")])
    def test_nonpositive_scale_is_refused(self, omega_s):
        with pytest.raises(DomainError, match="omega_s must be positive"):
            kinetic_parametric(omega_s, 0.1)


class TestEnergyParametric:
    def test_exact_recovery_term_by_term(self):
        e = energy_parametric(P03, KernelSpec.sum_one(0.5), F03.xi)
        assert e.kinetic == pytest.approx(ref.E_KINETIC_03, rel=1e-13)
        assert e.external == pytest.approx(ref.E_EXTERNAL_03, rel=1e-13)
        assert e.interaction == pytest.approx(ref.E_INTERACTION_03, rel=1e-13)
        assert e.total == pytest.approx(ref.E_TOTAL_03, rel=1e-13)

    def test_uncoupled_interaction_is_positive_zero(self):
        spec = KernelSpec.sum_one(0.4)
        scalar = energy_parametric(ModelParams(omega0=2.0), spec, 0.3).interaction
        assert math.copysign(1.0, scalar) == 1.0 and scalar == 0.0
        array = energy_parametric(ModelParams(omega0=2.0), spec, np.array([0.0, 0.3])).interaction
        assert np.all(np.copysign(1.0, array) == 1.0) and np.all(array == 0.0)

    def test_confinement_term_never_moves(self):
        spec = KernelSpec.sum_one(0.4)
        ext = [energy_parametric(P03, spec, x).external for x in (0.0, 0.1, 0.5, 0.9)]
        assert len(set(ext)) == 1

    def test_uncoupled_minimum_sits_at_zero(self):
        p = ModelParams(omega0=1.0)
        spec = KernelSpec.sum_one(0.5)
        e0 = energy_parametric(p, spec, 0.0).total
        assert e0 == pytest.approx(1.0, rel=1e-14)
        assert e0 < energy_parametric(p, spec, 0.05).total

    def test_square_root_exponent_bounds_from_above(self):
        # q = 1/2 is variational: its single stationary point is the global
        # minimum and coincides with the exact energy
        from harmonium import exact_energy

        e_ex = exact_energy(P03).total
        spec = KernelSpec.sum_one(0.5)
        for xi_p in (0.0, 0.005, F03.xi, 0.05, 0.3, 0.9):
            assert energy_parametric(P03, spec, xi_p).total >= e_ex - 1e-13

    def test_asymmetric_exponents_overcorrelate(self):
        # away from q = 1/2 the interaction gains a xi_p^min(q,1-q) cusp
        # that outruns the kinetic cost, so the minimum dips below the
        # exact energy; no upper-bound property holds there
        from harmonium import exact_energy, solve_xi_p

        e_ex = exact_energy(P03).total
        sol = solve_xi_p(P03, 0.3)
        e_min = energy_parametric(P03, KernelSpec.sum_one(0.3), sol.xi_p).total
        assert e_min < e_ex - 1e-3

    def test_array_matches_scalar_calls(self):
        # the array path forms every term with the scalar path's operations
        spec = KernelSpec.sum_one(0.37)
        xs = np.linspace(0.0, 0.999, 257)
        e = energy_parametric(P03, spec, xs)
        scalar = [energy_parametric(P03, spec, float(x)) for x in xs]
        for term in ("kinetic", "interaction", "total"):
            got = getattr(e, term)
            want = np.array([getattr(s, term) for s in scalar])
            assert got.shape == xs.shape
            assert np.max(np.abs(got - want) / np.abs(want)) <= 4e-16, term
        assert e.external == scalar[0].external

    def test_domain(self):
        spec = KernelSpec.sum_one(0.5)
        with pytest.raises(DomainError):
            energy_parametric(P03, spec, np.array([0.1, 1.0 - 1e-12]))
        with pytest.raises(DomainError):
            energy_parametric(ModelParams(coupling=-0.1), spec, 0.1)
        with pytest.raises(DomainError):
            energy_parametric(ModelParams(coupling=0.49995), spec, 0.1)
        with pytest.raises(DomainError):
            energy_parametric(P03, spec, 1.0 - 1e-12)


class TestKernelEval:
    """The pair kernel K_p, as the oracle evaluates it on a rule's tensor grid."""

    def test_uncorrelated_kernel_is_the_density_product(self):
        # at xi_p = 0 the gamma^q gamma^r factor collapses onto n1(x1) n1(x2)
        state = parametric_state(F03.omega_s, 0.5, 0.0)
        rule = gauss_hermite_rule(7, F03.omega_s)
        kern = _kernel_on_grid(P03, KernelSpec.sum_one(0.5), state, rule)
        n1 = density(P03, rule.nodes)
        assert np.max(np.abs(kern - np.outer(n1, n1))) < 1e-12

    def test_symmetry(self):
        state = parametric_state(F03.omega_s, 0.4, F03.xi)
        assert state.omega_p == pytest.approx(F03.omega_bar, rel=1e-13)
        kern = _kernel_on_grid(P03, KernelSpec.sum_one(0.4), state, gauss_hermite_rule(8))
        assert kern == pytest.approx(kern.T, rel=1e-12)
