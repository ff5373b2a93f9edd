import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_values as ref
from harmonium import (
    DomainError,
    ModelParams,
    derive_frequencies,
    dual_coupling,
    linear_entropy,
    purity,
    quasiparticle_weight,
    solve_xi_p,
)

XI_03 = ref.XI_03


class TestClosedForms:
    def test_reference_values(self):
        assert purity(XI_03) == pytest.approx(ref.PURITY_03, rel=1e-14)
        assert linear_entropy(XI_03) == pytest.approx(ref.LINEAR_ENTROPY_03, rel=1e-14)
        assert quasiparticle_weight(XI_03) == pytest.approx(ref.QP_WEIGHT_03, rel=1e-14)

    def test_purity_complements_linear_entropy(self):
        for xi in (0.0, 1e-6, 0.1, 0.5, 0.9):
            assert purity(xi) + linear_entropy(xi) == pytest.approx(1.0, abs=1e-15)

    def test_uncorrelated_limits(self):
        assert purity(0.0) == 1.0
        assert linear_entropy(0.0) == 0.0
        assert quasiparticle_weight(0.0) == 1.0

    def test_weight_is_condensate_fraction(self):
        # (1 - xi)^2 is also the lowest occupation times the depletion factor
        for xi in (0.0, 0.01, 0.3, 0.9):
            assert quasiparticle_weight(xi) == pytest.approx((1.0 - xi) ** 2, rel=1e-15)

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                purity(bad)
            with pytest.raises(DomainError):
                linear_entropy(bad)
            with pytest.raises(DomainError):
                quasiparticle_weight(bad)

    def test_nan_is_rejected_on_both_paths(self):
        for fn in (purity, linear_entropy, quasiparticle_weight):
            with pytest.raises(DomainError, match=r"xi must lie in \[0, 1\)"):
                fn(math.nan)
            with pytest.raises(DomainError, match=r"xi must lie in \[0, 1\)"):
                fn(np.array([0.1, math.nan]))

    def test_scalar_path_matches_array_path_bit_for_bit(self):
        # libm's pow(w, 2) and w*w round apart on roughly 1 in 1000 uniform draws
        rng = np.random.default_rng(7)
        xi = np.concatenate([[0.0], np.geomspace(1e-20, 0.999, 97), rng.random(20000)])
        for fn in (purity, linear_entropy, quasiparticle_weight):
            out = fn(xi)
            assert isinstance(out, np.ndarray)
            scalars = [fn(float(x)) for x in xi]
            assert all(type(v) is float for v in scalars)
            assert np.array_equal(out, scalars)
            assert fn(np.float64(xi[5])) == scalars[5] and fn(np.asarray(xi[5])) == scalars[5]

    @given(xi=st.floats(0.0, 0.999999))
    def test_ranges(self, xi):
        assert 0.0 < purity(xi) <= 1.0
        assert 0.0 <= linear_entropy(xi) < 1.0
        assert 0.0 < quasiparticle_weight(xi) <= 1.0

    def test_monotone_in_xi(self):
        xi = np.linspace(0.0, 0.999, 400)
        assert np.all(np.diff([purity(v) for v in xi]) < 0.0)
        assert np.all(np.diff([linear_entropy(v) for v in xi]) > 0.0)
        assert np.all(np.diff([quasiparticle_weight(v) for v in xi]) < 0.0)


class TestDuality:
    def test_reference_value(self):
        assert dual_coupling(0.3) == pytest.approx(ref.DUAL_COUPLING_03, rel=1e-14)

    def test_domain_is_open(self):
        for bad in (0.0, 0.5, -0.1, 0.6):
            with pytest.raises(DomainError):
                dual_coupling(bad)

    def test_dual_is_attractive_and_involutive(self):
        for lam in (0.05, 0.2, 0.45):
            mu = dual_coupling(lam)
            assert mu < 0.0
            # applying the map twice returns the original coupling
            assert mu / (1.0 - 2.0 * mu) * -1.0 == pytest.approx(lam, rel=1e-13)

    def test_dual_pair_shares_correlation(self):
        # the attractive partner has the same xi, hence identical entropy
        for lam in np.linspace(0.02, 0.48, 24):
            mu = dual_coupling(float(lam))
            f = derive_frequencies(ModelParams(coupling=float(lam)))
            g = derive_frequencies(ModelParams(coupling=mu))
            assert g.xi == pytest.approx(f.xi, rel=1e-12)
            assert linear_entropy(g.xi) == pytest.approx(linear_entropy(f.xi), rel=1e-12)


def entropies(coupling, q):
    """Linear entropy of the stationary spectrum at exponent q, and of the exact one."""
    params = ModelParams(coupling=coupling)
    return (linear_entropy(solve_xi_p(params, q).xi_p),
            linear_entropy(derive_frequencies(params).xi))


class TestComparison:
    def test_square_root_exponent_is_exact(self):
        l_par, l_ex = entropies(0.3, 0.5)
        assert l_par == pytest.approx(l_ex, abs=1e-12)
        assert l_ex == pytest.approx(ref.LINEAR_ENTROPY_03, rel=1e-13)

    def test_ordering_flips_with_coupling(self):
        # weakly coupled: the stationary state overestimates the entanglement;
        # strongly coupled: it underestimates it
        for q in (0.4, 0.3):
            l_par, l_ex = entropies(0.05, q)
            assert l_par - l_ex > 1e-12
            l_par, l_ex = entropies(0.45, q)
            assert l_par - l_ex < -1e-12
