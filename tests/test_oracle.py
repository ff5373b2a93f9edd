import json
import math
import random
import struct
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_hermite

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
    kernel_interaction_numeric,
    kinetic_parametric,
    occupation_spectrum,
    one_matrix,
    one_matrix_numeric,
    parametric_state,
    run_verification,
    solve_xi_p,
    spectral_kinetic_sum,
    wavefunction,
)
from harmonium import oracle as orc
from harmonium.mueller import energy_parametric
from harmonium.oracle import (
    _FSUM_CHUNK,
    _FSUM_ROWS,
    _FSUM_SAFE_MASS,
    _SCAN_POINTS,
    _SCAN_RESCORE,
    _fsum,
    _fsum_rows,
    _golden_section,
    _kernel_on_grid,
    _pair_potential,
    quad_1d,
    quad_2d,
    quad_pairs,
    reference_basis,
)
from harmonium.spectral import hermite_basis

P03 = ModelParams(coupling=0.3)

#: The scoreboard grid of `tests/fixtures/verify_grid.json`.  At 0.1431818181818182
#: a cache of pair arrays keyed on id(rule), which a recycled id can hand
#: another rule's arrays, was seen to change bits; they are cached per rule object.
GRID_LAMBDAS = (1e-9, 1e-6, 0.05, 0.1431818181818182, 0.4499)
GRID_QS = (0.3, 0.3512, 0.5, 0.6123, 0.7)
GRID_OMEGA0S = (1.0, 2.5)


def verify_grid_text() -> str:
    """The scoreboards over the grid as JSON, one entry per omega0."""
    return json.dumps({
        f"omega0={omega0:g}": run_verification(omega0=omega0, lambdas=GRID_LAMBDAS, qs=GRID_QS)
        for omega0 in GRID_OMEGA0S
    }, indent=2) + "\n"


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

    @pytest.mark.parametrize("shape", [(192,), (7, 1), (3, 4)])
    def test_matches_the_per_order_loop(self, shape):
        # one broadcast eval_hermite call keeps the bits of one call per order
        omega = 0.83
        x = np.random.default_rng(7).standard_normal(shape) * 4.0
        u = math.sqrt(omega) * x
        loop = np.empty((170,) + shape)
        for n in range(170):
            lognorm = -0.5 * (n * math.log(2.0) + math.lgamma(n + 1.0)) - 0.25 * math.log(math.pi)
            loop[n] = math.exp(lognorm) * eval_hermite(n, u) * np.exp(-0.5 * u ** 2)
        assert np.array_equal(reference_basis(170, omega, x), omega ** 0.25 * loop)

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
        spectrum = occupation_spectrum(f.xi)
        for x, xp in ((0.3, 1.1), (-2.0, 0.5), (1.7, 1.7)):
            series = one_matrix(spectrum, f.omega_bar, 1.0, x, xp)
            integral = one_matrix_numeric(P03, x, xp, check=False)
            assert integral == pytest.approx(series, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.3, 0.45])
    def test_broadcast_matches_scalar_calls(self, lam):
        # one exact sum per point: the array route gives the scalar route's bits
        params = ModelParams(coupling=lam)
        lattice = np.linspace(-3.0, 3.0, 7)
        got = one_matrix_numeric(params, lattice[:, None], lattice[None, :], check=False)
        assert got.shape == (7, 7)
        for i, x in enumerate(lattice):
            for j, xp in enumerate(lattice):
                want = one_matrix_numeric(params, float(x), float(xp), check=False)
                assert isinstance(want, float)
                assert got[i, j].hex() == want.hex()

    def test_oracle_window(self):
        with pytest.raises(DomainError):
            one_matrix_numeric(ModelParams(coupling=0.46), 0.0, 0.0)


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


def _plain_energy_terms(params, rule, psi2):
    """The energy check's three sums from the plain expressions, each term weighted,
    the off-diagonal ones doubled, and summed by math.fsum."""
    f = derive_frequencies(params)
    sum_w, diff_w = 0.5 * (f.omega1 + f.omega2), 0.5 * (f.omega1 - f.omega2)
    x1, x2, w = rule.pairs
    g1 = -sum_w * x1 - diff_w * x2
    g2 = -sum_w * x2 - diff_w * x1
    potential = (x1 - x2) ** 2 * (-0.5 * params.coupling * params.omega0 ** 2)
    sums = []
    for values in (-0.5 * (g1 ** 2 + g2 ** 2 - 2.0 * sum_w) * psi2,
                   0.5 * params.omega0 ** 2 * (x1 ** 2 + x2 ** 2) * psi2,
                   psi2 * potential):
        terms = w * values
        sums.append(math.fsum(np.concatenate([terms[:rule.count], 2.0 * terms[rule.count:]])))
    return sums


class TestEnergyTermsInPlace:
    @pytest.mark.parametrize("count", [96, 192])
    @pytest.mark.parametrize("omega0", [1.0, 2.5])
    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.2731, 0.45])
    def test_bits_of_the_plain_expressions_and_psi2_only_read(self, count, omega0, lam):
        # the terms are formed in reused buffers; psi2 is shared with psi_norm
        # in run_verification, so a write into it would move that check
        params = ModelParams(omega0=omega0, coupling=lam)
        f = derive_frequencies(params)
        rule = gauss_hermite_rule(count, 0.5 * (f.omega1 + f.omega2))
        psi2 = wavefunction(params, *rule.pairs[:2]) ** 2
        kept = psi2.copy()
        kinetic, external, interaction = _plain_energy_terms(params, rule, kept)
        for given in (psi2, None):
            e = orc._energy_on_pairs(params, rule, given)
            assert [e.kinetic.hex(), e.external.hex(), e.interaction.hex(), e.total.hex()] == [
                kinetic.hex(), external.hex(), interaction.hex(),
                (kinetic + external + interaction).hex()]
        assert np.array_equal(psi2, kept)
        # quad_pairs weights and doubles a new array, never the values it is given
        terms = rule.pairs[2] * kept
        norm = math.fsum(np.concatenate([terms[:count], 2.0 * terms[count:]]))
        assert quad_pairs(rule, psi2) == norm
        assert np.array_equal(psi2, kept)


class TestKineticSum:
    def test_matches_closed_form(self):
        f = derive_frequencies(P03)
        for xi_p in (0.0, 0.1, 0.3):
            omega_p = f.omega_s * (1.0 + xi_p) / (1.0 - xi_p)
            got = spectral_kinetic_sum(xi_p, omega_p)
            want = kinetic_parametric(f.omega_s, xi_p)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("xi_p, omega_p", [
        (0.0, 1.0), (1e-9, 0.7), (0.1, 2.5), (0.3, 0.9), (0.45, 1.3), (0.6, 4.0),
    ])
    def test_matches_the_per_orbital_loop(self, xi_p, omega_p):
        # the array expression keeps the bits of one ladder derivative per orbital
        spectrum = occupation_spectrum(xi_p)
        rule = gauss_hermite_rule(96, omega_p)
        basis = reference_basis(spectrum.truncation + 1, omega_p, rule.nodes)
        contributions = []
        for n in range(spectrum.truncation):
            dphi = -math.sqrt((n + 1.0) / 2.0) * basis[n + 1]
            if n > 0:
                dphi = dphi + math.sqrt(n / 2.0) * basis[n - 1]
            t_n = 0.5 * orc.quad_1d(rule, (math.sqrt(omega_p) * dphi) ** 2)
            contributions.append(2.0 * spectrum.weights[n] * t_n)
        assert spectral_kinetic_sum(xi_p, omega_p).hex() == math.fsum(contributions).hex()

    def test_at_the_exact_state(self):
        f = derive_frequencies(P03)
        st = parametric_state(f.omega_s, 0.5, f.xi)
        assert st.omega_p == pytest.approx(f.omega_bar, rel=1e-13)
        got = spectral_kinetic_sum(st.xi_p, st.omega_p)
        assert got == pytest.approx(kinetic_parametric(f.omega_s, f.xi), rel=1e-10)


class TestKernelNumeric:
    def test_interaction_at_exact_state(self):
        f = derive_frequencies(P03)
        st = parametric_state(f.omega_s, 0.5, f.xi)
        assert st.omega_p == pytest.approx(f.omega_bar, rel=1e-13)
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

    def test_mass_sum_one(self):
        f = derive_frequencies(P03)
        st = parametric_state(f.omega_s, 0.5, f.xi)
        assert st.omega_p == pytest.approx(f.omega_bar, rel=1e-13)
        rule = gauss_hermite_rule(96, f.omega_s)
        got = quad_2d(rule, _kernel_on_grid(P03, KernelSpec.sum_one(0.5), st, rule))
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_state_and_spec_must_share_powers(self):
        f = derive_frequencies(P03)
        spec = KernelSpec.sum_one(0.4)
        st = parametric_state(f.omega_s, 0.3, solve_xi_p(P03, 0.3).xi_p)
        with pytest.raises(DomainError, match="differ"):
            kernel_interaction_numeric(P03, spec, st, check=False)


def _kernel_interaction_q04(check):
    f = derive_frequencies(P03)
    state = parametric_state(f.omega_s, 0.4, solve_xi_p(P03, 0.4).xi_p)
    return kernel_interaction_numeric(P03, KernelSpec.sum_one(0.4), state, check=check)


@pytest.mark.parametrize("call, name", [
    (lambda check: one_matrix_numeric(P03, 0.7, -0.4, check=check),
     "one_matrix_numeric(x=0.7, xp=-0.4)"),
    (lambda check: one_matrix_numeric(P03, [0.0, 0.7], -0.4, check=check),
     "one_matrix_numeric(x=[0.0, 0.7], xp=-0.4)"),
    (lambda check: hamiltonian_expectation_numeric(P03, check=check),
     "hamiltonian_expectation_numeric"),
    (_kernel_interaction_q04, "kernel_interaction_numeric"),
], ids=["one_matrix", "one_matrix_array", "hamiltonian", "kernel_interaction"])
def test_doubling_check_warns_at_the_caller(monkeypatch, call, name):
    # with a zero tolerance any shift under doubled nodes warns, and only
    # with check=True; the warning points at the line that called the wrapper
    monkeypatch.setattr(orc, "_DOUBLING_TOL", 0.0)
    with pytest.warns(AccuracyWarning, match="doubling the quadrature nodes moved") as record:
        call(check=True)
    assert [str(w.message).split(":")[0] for w in record] == [name]
    assert [w.filename for w in record] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(check=False)


@pytest.mark.parametrize("omega0", [1e8, 1e20])
def test_doubling_check_reads_in_the_values_unit(omega0):
    # the wrappers' converged 96-node rules: the shift under doubled nodes is measured in
    # omega0 for the energies and in sqrt(omega0) for the one-matrix
    params = ModelParams(omega0=omega0, coupling=0.3)
    f = derive_frequencies(params)
    state = parametric_state(f.omega_s, 0.4, solve_xi_p(params, 0.4).xi_p)
    lattice = np.linspace(-3.0, 3.0, 7) / math.sqrt(omega0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        hamiltonian_expectation_numeric(params)
        kernel_interaction_numeric(params, KernelSpec.sum_one(0.4), state)
        one_matrix_numeric(params, lattice[:, None], lattice[None, :])


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


class TestCachedArrays:
    def test_cached_norms_and_scan_grid_are_read_only(self):
        # one array per n_max is shared by every reference_basis call, and one
        # scan grid by every brute_force_minimize call
        norms = orc._reference_norms(12)
        assert norms is orc._reference_norms(12)
        for cached in (norms, orc._SCAN_GRID):
            with pytest.raises(ValueError):
                cached[0] = 1.0
        assert np.array_equal(orc._SCAN_GRID, np.linspace(0.0, 0.999, _SCAN_POINTS))

    def test_scoreboard_repeats_across_couplings(self):
        first = run_verification(lambdas=(0.2731,), qs=(0.3512, 0.6123))
        run_verification(omega0=2.5, lambdas=(0.1,), qs=(0.4,))
        assert run_verification(lambdas=(0.2731,), qs=(0.3512, 0.6123)) == first


def _outcome(fn, values):
    """A sum's bits, or the type and text of the exception it raised."""
    try:
        return struct.pack("<d", fn(values))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


_TINY = 2.2250738585072014e-308  # smallest normal double; below it are the subnormals
_HUGE = 1.7976931348623157e308
#: Finite pieces whose arrays of up to 2**16 terms stay under the overflow gate.
_FINITE_PIECES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-_TINY, _TINY),
    st.floats(1e-300, 1e300).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-1e3, 1e3),
)
_PIECES = st.one_of(
    _FINITE_PIECES,
    st.floats(1e307, _HUGE).flatmap(lambda v: st.sampled_from([v, -v])),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


def _fsum_falls_back(values) -> tuple:
    """`_outcome` of `_fsum`, and whether `_fsum` handed the array to math.fsum."""
    fsum, calls = math.fsum, []
    with mock.patch.object(math, "fsum", lambda v: calls.append(len(v)) or fsum(v)):
        outcome = _outcome(_fsum, values)
    return outcome, bool(calls)


class TestFsum:
    """`_fsum` is math.fsum, bit for bit, on arrays long enough for the numpy path."""

    def test_matches_math_fsum(self):
        # each piece is tiled over a stretch of the array, so that one family of
        # magnitudes or specials fills whole chunks and mixes with the next.  About
        # four examples in five draw finite pieces under the overflow gate, which the
        # extraction sums; the specials and huge values have examples of their own.
        in_numpy = []

        @settings(max_examples=150, deadline=None)
        @given(special=st.integers(0, 4).map(lambda v: v == 4), data=st.data(),
               length=st.integers(_FSUM_CHUNK, 3 * _FSUM_CHUNK), cancel=st.floats(0.0, 1.0),
               seed=st.integers(0, 2 ** 32 - 1))
        def check(special, data, length, cancel, seed):
            pieces = data.draw(st.lists(st.lists(_PIECES if special else _FINITE_PIECES,
                                                 min_size=1, max_size=12), min_size=1, max_size=4))
            x = np.concatenate([np.resize(np.array(p), length // len(pieces)) for p in pieces])
            planted = np.concatenate([x, -x[: int(cancel * x.size)]])
            np.random.default_rng(seed).shuffle(planted)
            for values in (x, planted):
                outcome, fell_back = _fsum_falls_back(values)
                expected = _outcome(math.fsum, values)
                assert outcome == expected
                if not special and expected != struct.pack("<d", 0.0):
                    in_numpy.append(not fell_back)

        check()
        # an exact zero is math.fsum's by design; nearly every other finite sum is certified
        assert len(in_numpy) >= 100 and sum(in_numpy) > 0.8 * len(in_numpy), in_numpy

    def test_edge_cases(self):
        n = _FSUM_CHUNK + 7
        rng = np.random.default_rng(5)
        cases = [
            np.array([]),
            np.full(n, -0.0),
            np.full(n, 5e-324),
            np.resize([_HUGE, -_HUGE], n),
            np.resize([_HUGE, _HUGE, -_HUGE], n),
            np.resize([_HUGE / 2, _HUGE / 4], n),
            np.resize([1.0, math.inf], n),
            np.resize([math.inf, -math.inf], n),
            np.resize([math.nan, 1.0], n),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            np.concatenate([rng.standard_normal(3 * n), [1e-300]]),
            # subnormal terms: the extraction's last unit is below 2**-1074
            np.full(_FSUM_CHUNK, 9.88e-309),
        ]
        # just under the overflow gate, so on the numpy path: the high halves
        # land in bin ~2109 and their carry in the headroom bins above it
        top = np.full(n, 2.0 ** 1009)
        near_gate = [
            top,
            top * rng.choice([-1.0, 1.0], n),
            np.concatenate([top[:-3] * np.resize([1.0, -1.0, 1.0], n - 3),
                            [5e-324, -3e-320, 2.2e-308]]),
            # under the gate, but the extraction's sigma0 would be 2**1024
            np.full(2 * _FSUM_CHUNK - 1, 2.0 ** 1009 * 1.0001),
        ]
        for values in near_gate:
            assert float(np.max(np.abs(values))) * values.size < _FSUM_SAFE_MASS
        for values in cases + near_gate:
            for shape in (values, values[:_FSUM_CHUNK - 1]):
                assert _outcome(_fsum, shape) == _outcome(math.fsum, shape)

    def test_long_finite_arrays_stay_in_numpy(self, monkeypatch):
        x = np.random.default_rng(3).standard_normal(3 * _FSUM_CHUNK + 1)
        expected = math.fsum(x)

        def refuse(values):
            raise AssertionError("math.fsum called")

        monkeypatch.setattr(math, "fsum", refuse)
        assert _fsum(x) == expected

    @settings(max_examples=150, deadline=None)
    @given(odd=st.booleans(), sign=st.sampled_from([-1.0, 1.0]), scale=st.integers(-800, 800),
           planted=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(60, 200)),
                            max_size=6),
           length=st.integers(_FSUM_CHUNK, 2 * _FSUM_CHUNK), seed=st.integers(0, 2 ** 32 - 1))
    def test_rounding_midpoints_match_math_fsum(self, odd, sign, scale, planted, length, seed):
        # base + 2**-53 lies halfway between two doubles, rounding to even; the
        # planted terms sit on or below the extraction's resolution, so they
        # decide the rounding and math.fsum has to take over
        terms = [1.0 + odd * 2.0 ** -52, 2.0 ** -53] + [s * 2.0 ** -k for s, k in planted]
        x = np.zeros(length)
        x[:len(terms)] = np.ldexp(sign * np.array(terms), scale)
        np.random.default_rng(seed).shuffle(x)
        assert _outcome(_fsum, x) == _outcome(math.fsum, x)

    def test_uncertified_sums_go_to_math_fsum(self, monkeypatch):
        x = np.zeros(_FSUM_CHUNK)
        x[:3] = 1.0, 2.0 ** -53, 2.0 ** -200
        fsum, calls = math.fsum, []

        def spy(values):
            calls.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", spy)
        assert _fsum(x) == 1.0 + 2.0 ** -52
        assert calls == [_FSUM_CHUNK]

    def test_verification_sums_stay_in_numpy(self, monkeypatch):
        self._sums_stay_in_numpy(monkeypatch, (0.1, 0.3), (0.5, 0.4), rows=216)

    def test_grid_sums_stay_in_numpy(self, monkeypatch):
        self._sums_stay_in_numpy(monkeypatch, GRID_LAMBDAS, GRID_QS, rows=540)

    @staticmethod
    def _sums_stay_in_numpy(monkeypatch, lambdas, qs, rows):
        # every long sum and every row of an array of rows is certified by the
        # extraction alone; only arrays of fewer rows still reach math.fsum
        fsum, extract, extract_rows = math.fsum, orc._fsum, orc._fsum_rows
        long_sums, calls, certified_rows = [], [], []

        def short_only(values):
            assert len(values) < _FSUM_CHUNK, "a long sum fell back to math.fsum"
            calls.append(len(values))
            return fsum(values)

        def counted(values):
            long_sums.append(np.size(values) >= _FSUM_CHUNK)
            return extract(values)

        def counted_rows(x):
            before = len(calls)
            sums = extract_rows(x)
            if len(x) >= _FSUM_ROWS:
                assert len(calls) == before, "a row of a multi-row sum fell back to math.fsum"
                certified_rows.append(len(x))
            return sums

        monkeypatch.setattr(math, "fsum", short_only)
        monkeypatch.setattr(orc, "_fsum", counted)
        monkeypatch.setattr(orc, "_fsum_rows", counted_rows)
        run_verification(lambdas=lambdas, qs=qs)
        # 7 tensor-product sums per coupling and 3 per (coupling, q), of at
        # least 96 * 97 / 2 terms; the 7 x 7 lattice and the orbital rows of
        # the two spectral_kinetic_sum calls with more than one orbital
        assert sum(long_sums) == len(lambdas) * (7 + 3 * len(qs))
        assert sum(certified_rows) == rows


@st.composite
def _planted_row(draw, length):
    """A row of `length` terms built to stress one branch of the row kernel."""
    kind = draw(st.sampled_from(["tiled", "cancel", "midpoint", "near_gate"]))
    if kind == "tiled":
        return np.resize(draw(st.lists(_PIECES, min_size=1, max_size=8)), length)
    if kind == "cancel":
        # the exact sum is zero (or NaN), whose sign math.fsum decides
        half = np.resize(draw(st.lists(_PIECES, min_size=1, max_size=8)), length // 2)
        return np.concatenate([half, -half, np.zeros(length % 2)])
    row = np.zeros(length)
    if kind == "midpoint":
        # base + 2**-53 is halfway between two doubles; the planted terms, at or
        # below the extraction's resolution, decide the rounding
        planted = draw(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(60, 200)),
                                min_size=1, max_size=6))
        terms = [1.0 + draw(st.booleans()) * 2.0 ** -52, 2.0 ** -53]
        terms = (terms + [s * 2.0 ** -k for s, k in planted])[:length]
        scale, sign = draw(st.integers(-1070, 970)), draw(st.sampled_from([-1.0, 1.0]))
        row[:len(terms)] = np.ldexp(sign * np.array(terms), scale)
        return row
    # the absolute values sum to just below or at 2**1022, the overflow gate
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=1, max_size=4))
    return np.resize(signs, length) * (_FSUM_SAFE_MASS / length) * draw(st.floats(0.5, 1.0))


class TestFsumRows:
    """`_fsum_rows` is math.fsum on each row, bit for bit, and `quad_pairs` is `quad_2d`."""

    @settings(max_examples=75, deadline=None)
    @given(data=st.data(), length=st.integers(2, 370), count=st.integers(_FSUM_ROWS, 60),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_math_fsum_per_row(self, data, length, count, seed):
        rng = np.random.default_rng(seed)
        x = np.array([rng.permutation(data.draw(_planted_row(length))) for _ in range(count)])
        expected = [_outcome(math.fsum, row) for row in x]
        sums = [isinstance(e, bytes) for e in expected]
        # the first row that raises in math.fsum raises here too
        if not all(sums):
            first = expected[sums.index(False)]
            with pytest.raises(first[0]) as exc:
                _fsum_rows(x)
            assert str(exc.value) == first[1]
        assert [struct.pack("<d", v) for v in _fsum_rows(x[sums])] == [
            e for e, ok in zip(expected, sums) if ok]

    def test_uncertified_rows_alone_go_to_math_fsum(self, monkeypatch):
        x = np.random.default_rng(7).standard_normal((_FSUM_ROWS, 96))
        x[2, :3] = 1.0, 2.0 ** -53, 2.0 ** -200
        x[2, 3:] = 0.0
        fsum, calls = math.fsum, []

        def spy(values):
            calls.append(values)
            return fsum(values)

        monkeypatch.setattr(math, "fsum", spy)
        sums = _fsum_rows(x)
        assert calls == [x[2].tolist()]
        assert sums.tolist() == [fsum(row) for row in x.tolist()]

    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(2, 370), scale=st.floats(0.05, 20.0),
           lam=st.floats(0.0, 0.45), omega0=st.floats(0.1, 10.0))
    def test_pairs_match_the_full_grid(self, count, scale, lam, omega0):
        # the hamiltonian's integrands and psi^2 on the i <= j pairs, against
        # the same formulas broadcast over the full tensor grid
        params = ModelParams(omega0=omega0, coupling=lam)
        f = derive_frequencies(params)
        sum_w, diff_w = 0.5 * (f.omega1 + f.omega2), 0.5 * (f.omega1 - f.omega2)
        rule = gauss_hermite_rule(count, scale)

        def integrands(x1, x2):
            psi2 = wavefunction(params, x1, x2) ** 2
            g1 = -sum_w * x1 - diff_w * x2
            g2 = -sum_w * x2 - diff_w * x1
            return (psi2,
                    -0.5 * (g1 ** 2 + g2 ** 2 - 2.0 * sum_w) * psi2,
                    0.5 * params.omega0 ** 2 * (x1 ** 2 + x2 ** 2) * psi2,
                    psi2 * _pair_potential(params, x1 - x2))

        full = [quad_2d(rule, v) for v in integrands(rule.nodes[:, None], rule.nodes[None, :])]
        half = [quad_pairs(rule, v) for v in integrands(*rule.pairs[:2])]
        assert [v.hex() for v in half] == [v.hex() for v in full]
        terms = orc._energy_on_pairs(params, rule)
        assert [terms.kinetic, terms.external, terms.interaction] == full[1:]

    @pytest.mark.parametrize("count", [2, 3, 96, 192, 370])
    def test_pairs_of_any_symmetric_matrix(self, count):
        rng = np.random.default_rng(count)
        a = rng.standard_normal((count, count)) * 10.0 ** rng.integers(-300, 300, (count, count))
        values = a + a.T
        rule = gauss_hermite_rule(count, 1.7)
        i, j = orc._pair_indices(count)
        assert quad_pairs(rule, values[i, j]) == quad_2d(rule, values)
        assert sorted(zip(i.tolist(), j.tolist())) == [
            (a, b) for a in range(count) for b in range(a, count)]


def _scalar_scan(params, spec):
    """The scan as one energy_parametric call per grid point, and its polish."""
    def objective(x):
        return energy_parametric(params, spec, float(x)).total

    xs = np.linspace(0.0, 0.999, _SCAN_POINTS)
    energies = np.array([objective(x) for x in xs])
    i = int(np.argmin(energies))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, _SCAN_POINTS - 1)]
    x_min, e_min = _golden_section(objective, float(lo), float(hi))
    return xs, energies, (float(x_min), float(e_min))


class TestScanMatchesScalarScan:
    PAIRS = [(random.Random(n).uniform(1e-6, 0.45), random.Random(-n).uniform(0.05, 0.95))
             for n in range(20)]

    @pytest.mark.parametrize("lam, q", PAIRS)
    def test_same_pick_and_result(self, lam, q):
        params, spec = ModelParams(coupling=lam), KernelSpec.sum_one(q)
        xs, scalar, expected = _scalar_scan(params, spec)
        vector = energy_parametric(params, spec, xs).total
        # the vectorised energies sit far inside the band that is rescored on the scalar path
        assert np.max(np.abs(vector - scalar) / np.abs(scalar)) < 1e-3 * _SCAN_RESCORE
        assert int(np.argmin(vector)) == int(np.argmin(scalar))
        assert brute_force_minimize(params, spec) == expected

    # couplings at which the two lowest grid energies tie to an ulp, found by
    # bisecting on their difference; an ulp of numpy's pow can reorder such a
    # tie, and only the rescoring on the scalar path keeps the scalar pick
    @pytest.mark.parametrize("lam, q", [
        (0.34625536404552876, 0.2346947283003133),
        (0.2086715972653523, 0.8981112472170061),
        (0.32240660835552526, 0.6199120159998797),
        (0.43099790260477766, 0.7552592765687629),
    ])
    def test_near_ties_keep_the_scalar_pick(self, lam, q):
        params, spec = ModelParams(coupling=lam), KernelSpec.sum_one(q)
        assert brute_force_minimize(params, spec) == _scalar_scan(params, spec)[2]


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

    def test_kernel_mass_reference_is_one(self, default_report):
        # under r = 1 - q the gamma^q gamma^r mass is exactly 1, so the kernel integrates to 1
        masses = [c for c in default_report if c["check"].startswith("kernel_mass[")]
        assert len(masses) == 4
        assert all(c["reference"] == 1.0 for c in masses)

    def test_one_kernel_grid_and_reference_basis_per_rule(self, monkeypatch):
        # per (coupling, q): one grid for the mass and interaction checks, one for
        # node doubling, each with one basis; spectral_kinetic_sum adds 3 per coupling
        counts = {"_kernel_on_grid": 0, "reference_basis": 0}

        def counted(name):
            original = getattr(orc, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(orc, name, wrapper)

        counted("_kernel_on_grid")
        counted("reference_basis")
        run_verification()
        assert counts == {"_kernel_on_grid": 8, "reference_basis": 14}

    def test_one_lattice_call_per_coupling(self, monkeypatch):
        # the 7 x 7 lattice is one broadcast call, not one call per point
        calls = []
        original = orc._one_matrix_on

        def wrapper(*args, **kwargs):
            calls.append(args[2:4])
            return original(*args, **kwargs)

        monkeypatch.setattr(orc, "_one_matrix_on", wrapper)
        run_verification()
        assert len(calls) == 2
        assert all(np.shape(x) == (7, 1, 1) and np.shape(xp) == (1, 7, 1) for x, xp in calls)

    @pytest.mark.parametrize("omega0", [1e-150, 1e-8, 2.5, 1e8, 1e20, 1e150])
    def test_passes_at_every_omega0(self, omega0):
        # tolerances and lattice are in units of omega0, so the checks are the same ones
        report = run_verification(omega0=omega0, lambdas=(0.3,), qs=(0.4,))
        failed = [c["check"] for c in report if not c["pass"]]
        assert failed == []
        tolerances = {c["check"]: c["tolerance"] for c in report}
        assert tolerances["virial_balance[lam=0.3]"] == 1e-7 * omega0
        assert tolerances["one_matrix_lattice[lam=0.3]"] == 1e-8 * math.sqrt(omega0)

    def test_entry_schema(self, default_report):
        for c in default_report:
            assert set(c) == {"check", "value", "reference", "error", "tolerance", "pass"}
            assert isinstance(c["pass"], bool)

    def test_repeats_are_checked_once_in_first_seen_order(self):
        # the scoreboard is read by check name, so a name may not appear twice
        once = run_verification(lambdas=(0.3, 0.1), qs=(0.4, 0.5))
        assert run_verification(lambdas=(0.3, 0.1, 0.3), qs=(0.4, 0.5, 0.4)) == once
        names = [c["check"] for c in once]
        assert len(names) == len(set(names))
        assert names[0] == "psi_norm[lam=0.3]"

    @pytest.mark.parametrize("lambdas, qs, tag", [
        ((0.3, 0.30000001), (0.5,), "lam=0.3"),
        ((0.3,), (0.4, 0.4000001), "q=0.4"),
    ])
    def test_distinct_values_sharing_a_tag_are_refused(self, monkeypatch, lambdas, qs, tag):
        # refused before the first quadrature, so no check name can repeat
        def no_quadrature(*a, **k):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr("harmonium.oracle.gauss_hermite_rule", no_quadrature)
        with pytest.raises(DomainError, match="print as the check-name tags") as exc:
            run_verification(lambdas=lambdas, qs=qs)
        assert f"['{tag}', '{tag}']" in str(exc.value)

    def test_tamper_is_detected(self):
        report = run_verification(lambdas=(0.3,), qs=(0.5,), tamper=True)
        by_name = {c["check"]: c for c in report}
        assert not by_name["hamiltonian_total[lam=0.3]"]["pass"]
        assert not by_name["kernel_interaction[lam=0.3,q=0.5]"]["pass"]
        # untouched checks keep passing, so the skew is the only failure mode
        assert by_name["psi_norm[lam=0.3]"]["pass"]
        assert by_name["scan_vs_root[lam=0.3,q=0.5]"]["pass"]

    def test_grid_matches_frozen_bytes(self):
        # the fixture holds verify_grid_text() as it was before the row kernel
        # and the half-grid sums, so every check kept its bits through them
        fixture = Path(__file__).parent / "fixtures" / "verify_grid.json"
        assert verify_grid_text() == fixture.read_text(encoding="utf-8")

    def test_strong_coupling_window(self):
        report = run_verification(lambdas=(0.45,), qs=(0.5,))
        failed = [c["check"] for c in report if not c["pass"]]
        assert failed == []
