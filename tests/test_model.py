import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_values as ref
from harmonium import (
    DomainError,
    EnergyBreakdown,
    ModelParams,
    density,
    derive_frequencies,
    effective_potential,
    exact_energy,
    hartree_fock,
    wavefunction,
)

P03 = ModelParams(omega0=1.0, coupling=0.3)


class TestParams:
    def test_defaults(self):
        p = ModelParams()
        assert p.omega0 == 1.0 and p.coupling == 0.0

    @pytest.mark.parametrize("omega0", [0.0, -1.0, float("nan"), float("inf"), 1e-160, 1e155])
    def test_bad_omega0(self, omega0):
        # outside [1e-150, 1e150] omega0^2 overflows or turns subnormal
        with pytest.raises(DomainError, match=r"omega0 must lie in \[1e-150, 1e150\]"):
            ModelParams(omega0=omega0)

    @pytest.mark.parametrize("omega0", [1e-150, 1e150])
    def test_omega0_window_is_closed(self, omega0):
        assert exact_energy(ModelParams(omega0=omega0, coupling=0.3)).total > 0.0

    @pytest.mark.parametrize("coupling, message", [
        (0.5, "stability bound"), (0.7, "stability bound"), (float("nan"), "must be finite"),
        (float("inf"), "must be finite"), (float("-inf"), "must be finite"),
    ], ids=["0.5", "0.7", "nan", "inf", "-inf"])
    def test_bad_coupling(self, coupling, message):
        # a non-finite coupling is not reported as an unstable one
        with pytest.raises(DomainError, match=message):
            ModelParams(coupling=coupling)

    def test_attractive_allowed(self):
        assert ModelParams(coupling=-0.75).coupling == -0.75


class TestFrequencies:
    def test_reference_point(self):
        f = derive_frequencies(P03)
        assert f.omega1 == 1.0
        assert f.omega2 == pytest.approx(ref.OMEGA2_03, rel=1e-15)
        assert f.omega_s == pytest.approx(ref.OMEGA_S_03, rel=1e-15)
        assert f.omega_bar == pytest.approx(ref.OMEGA_BAR_03, rel=1e-15)
        assert f.xi == pytest.approx(ref.XI_03, rel=1e-14)

    def test_small_coupling_keeps_relative_accuracy(self):
        # 1 - (1 - 2*coupling)^(1/4) cancels in doubles; xi must not lose digits to it
        for lam, expect in ((1e-9, ref.XI_1EM9), (1e-5, ref.XI_1EM5)):
            xi = derive_frequencies(ModelParams(coupling=lam)).xi
            assert abs(xi / expect - 1.0) <= 2e-15

    def test_xi_equals_z_squared(self):
        for lam in (-2.0, -0.3, 0.0, 0.1, 0.3, 0.45, 0.4999):
            f = derive_frequencies(ModelParams(coupling=lam))
            assert f.xi == pytest.approx(f.z ** 2, rel=1e-14, abs=1e-300)

    def test_uncoupled_limit(self):
        f = derive_frequencies(ModelParams(omega0=2.5))
        assert f.omega1 == f.omega2 == 2.5
        assert f.omega_s == 2.5 and f.omega_bar == 2.5
        assert f.z == 0.0 and f.xi == 0.0

    def test_mean_ordering_repulsive(self):
        f = derive_frequencies(P03)
        assert f.omega2 < f.omega_s < f.omega_bar < f.omega1
        assert f.z < 0.0

    def test_sign_flips_for_attraction(self):
        f = derive_frequencies(ModelParams(coupling=-0.3))
        assert f.omega2 > f.omega1
        assert f.z > 0.0

    def test_scale_covariance(self):
        f = derive_frequencies(ModelParams(omega0=2.0, coupling=0.3))
        assert f.xi == pytest.approx(ref.XI_03_W2, rel=1e-14)
        assert f.omega_s == pytest.approx(2.0 * ref.OMEGA_S_03, rel=1e-15)


class TestExactEnergy:
    def test_reference_terms(self):
        e = exact_energy(P03)
        assert e.kinetic == pytest.approx(ref.E_KINETIC_03, rel=1e-14)
        assert e.external == pytest.approx(ref.E_EXTERNAL_03, rel=1e-14)
        assert e.interaction == pytest.approx(ref.E_INTERACTION_03, rel=1e-14)
        assert e.total == pytest.approx(ref.E_TOTAL_03, rel=1e-13)

    def test_total_is_term_sum(self):
        e = exact_energy(P03)
        assert e.total == e.kinetic + e.external + e.interaction

    def test_collapse_to_half_mode_sum(self):
        for lam in (0.0, 1e-6, 0.1, 0.3, 0.45, 0.4999):
            p = ModelParams(coupling=lam)
            f = derive_frequencies(p)
            e = exact_energy(p)
            assert e.total == pytest.approx(0.5 * (f.omega1 + f.omega2), rel=1e-13)

    def test_uncoupled_value(self):
        e = exact_energy(ModelParams(omega0=3.0))
        assert e.total == pytest.approx(3.0, rel=1e-15)
        assert e.interaction == 0.0

    @pytest.mark.parametrize("omega0", [1e-150, 1.0, 3.0, 1e150])
    def test_uncoupled_interaction_is_positive_zero(self, omega0):
        p = ModelParams(omega0=omega0)
        for e in (exact_energy(p), hartree_fock(p)[1]):
            assert math.copysign(1.0, e.interaction) == 1.0 and e.interaction == 0.0

    def test_attractive_branch(self):
        p = ModelParams(coupling=-0.2)
        e = exact_energy(p)
        f = derive_frequencies(p)
        assert e.total == pytest.approx(0.5 * (f.omega1 + f.omega2), rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(
        omega0=st.floats(0.05, 20.0),
        coupling=st.floats(0.0, 0.4999),
    )
    def test_identity_random(self, omega0, coupling):
        p = ModelParams(omega0=omega0, coupling=coupling)
        f = derive_frequencies(p)
        e = exact_energy(p)
        assert e.total == pytest.approx(0.5 * (f.omega1 + f.omega2), rel=1e-13)


class TestWavefunction:
    def test_reference_value(self):
        assert wavefunction(P03, 0.3, -0.2) == pytest.approx(ref.PSI_03_AT, rel=1e-14)

    def test_exchange_symmetry_exact(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-3, 3, size=(40, 2))
        for x1, x2 in pts:
            assert wavefunction(P03, x1, x2) == wavefunction(P03, x2, x1)

    def test_uncoupled_product_form(self):
        p = ModelParams(omega0=1.7)
        x1, x2 = 0.4, -1.1
        phi = lambda x: (1.7 / math.pi) ** 0.25 * math.exp(-0.85 * x ** 2)
        assert wavefunction(p, x1, x2) == pytest.approx(phi(x1) * phi(x2), rel=1e-14)

    def test_array_broadcast(self):
        x = np.linspace(-2, 2, 9)
        vals = wavefunction(P03, x, 0.5)
        assert vals.shape == (9,)
        assert vals[3] == wavefunction(P03, float(x[3]), 0.5)


class TestDensity:
    def test_reference_values(self):
        assert density(P03, 0.0) == pytest.approx(ref.DENSITY0_03, rel=1e-14)
        assert density(P03, 0.7) == pytest.approx(ref.DENSITY_07_03, rel=1e-14)

    def test_even_and_peaked(self):
        x = np.linspace(0.1, 4.0, 25)
        assert np.array_equal(density(P03, x), density(P03, -x))
        assert np.all(np.diff(density(P03, x)) < 0)


class TestEffectivePotential:
    def test_reference_values(self):
        v0, mu = effective_potential(P03, 0.0)
        assert mu == pytest.approx(ref.MU_03, rel=1e-14)
        assert v0 == pytest.approx(ref.V_OFFSET_03, rel=1e-14)

    def test_uncoupled_limit(self):
        v, mu = effective_potential(ModelParams(), 1.0)
        assert mu == pytest.approx(1.0, rel=1e-15)
        assert v == pytest.approx(1.0, rel=1e-15)  # x^2/2 + 1/2 at x = 1

    def test_sqrt_density_solves_the_schroedinger_equation(self):
        # five-point stencil second derivative of sqrt(n1), h chosen so the
        # truncation error sits far below the 1e-8 budget
        h = 0.01
        for lam in (0.1, 0.3, 0.45):
            p = ModelParams(coupling=lam)
            for x in (-1.7, -0.4, 0.0, 0.9, 2.3):
                f = lambda t: math.sqrt(density(p, t))
                d2 = (
                    -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
                    + 16 * f(x - h) - f(x - 2 * h)
                ) / (12 * h ** 2)
                v, mu = effective_potential(p, x)
                assert abs(-0.5 * d2 + v * f(x) - mu * f(x)) < 1e-8


class TestHartreeFock:
    def test_reference_frequencies(self):
        for lam, expect in ((0.1, ref.HF_OMEGA_010), (0.36, ref.HF_OMEGA_036)):
            omega, _ = hartree_fock(ModelParams(coupling=lam))
            assert omega == pytest.approx(expect, rel=1e-12)

    def test_reference_energy(self):
        _, e = hartree_fock(P03)
        assert e.total == pytest.approx(ref.HF_ENERGY_03, rel=1e-12)
        assert e.total == e.kinetic + e.external + e.interaction

    def test_upper_bound_property(self):
        for lam in (0.05, 0.2, 0.35, 0.45):
            p = ModelParams(coupling=lam)
            _, e = hartree_fock(p)
            assert e.total > exact_energy(p).total

    def test_equality_without_interaction(self):
        p = ModelParams(omega0=1.3)
        omega, e = hartree_fock(p)
        assert omega == pytest.approx(1.3, rel=1e-14)
        assert e.total == pytest.approx(exact_energy(p).total, rel=1e-13)

    def test_attractive_branch(self):
        omega, _ = hartree_fock(ModelParams(coupling=-0.4))
        assert omega == pytest.approx(math.sqrt(1.4), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(coupling=st.floats(1e-6, 0.4999))
    def test_bound_random(self, coupling):
        p = ModelParams(coupling=coupling)
        _, e = hartree_fock(p)
        assert e.total >= exact_energy(p).total


def test_breakdown_constructor_identity():
    e = EnergyBreakdown.from_terms(0.4, 0.6, -0.2)
    assert e.total == 0.4 + 0.6 + (-0.2)
