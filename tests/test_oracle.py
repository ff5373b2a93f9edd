import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from harmonium import oracle as orc
from harmonium.mueller import energy_parametric
from harmonium.oracle import (
    _FSUM_CHUNK,
    _SCAN_POINTS,
    _SCAN_RESCORE,
    _fsum,
    _golden_section,
    _kernel_on_grid,
    quad_1d,
    quad_2d,
    reference_basis,
)
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

    def test_coarse_rule_warns(self):
        rule = gauss_hermite_rule(8, 1.0)
        with pytest.warns(AccuracyWarning):
            one_matrix_numeric(P03, 0.7, -0.4, rule=rule, check=True)
        with pytest.warns(AccuracyWarning):
            one_matrix_numeric(P03, [0.0, 0.7], -0.4, rule=rule, check=True)


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


def _outcome(fn, values):
    """A sum's bits, or the type and text of the exception it raised."""
    try:
        return struct.pack("<d", fn(values))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


_TINY = 2.2250738585072014e-308  # smallest normal double; below it are the subnormals
_HUGE = 1.7976931348623157e308
_PIECES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-_TINY, _TINY),
    st.floats(1e-300, 1e300).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(1e307, _HUGE).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-1e3, 1e3),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


class TestFsum:
    """`_fsum` is math.fsum, bit for bit, on arrays long enough for the numpy path."""

    @settings(max_examples=150, deadline=None)
    @given(pieces=st.lists(st.lists(_PIECES, min_size=1, max_size=12), min_size=1, max_size=4),
           length=st.integers(_FSUM_CHUNK, 3 * _FSUM_CHUNK), cancel=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_math_fsum(self, pieces, length, cancel, seed):
        # each piece is tiled over a stretch of the array, so that one family
        # of magnitudes or specials fills whole chunks and mixes with the next
        x = np.concatenate([np.resize(np.array(p), length // len(pieces)) for p in pieces])
        planted = np.concatenate([x, -x[: int(cancel * x.size)]])
        np.random.default_rng(seed).shuffle(planted)
        for values in (x, planted):
            assert _outcome(_fsum, values) == _outcome(math.fsum, values)

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
        ]
        for values in cases:
            for shape in (values, values[:_FSUM_CHUNK - 1]):
                assert _outcome(_fsum, shape) == _outcome(math.fsum, shape)

    def test_long_finite_arrays_stay_in_numpy(self, monkeypatch):
        x = np.random.default_rng(3).standard_normal(3 * _FSUM_CHUNK + 1)
        expected = math.fsum(x)

        def refuse(values):
            raise AssertionError("math.fsum called")

        monkeypatch.setattr(math, "fsum", refuse)
        assert _fsum(x) == expected


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
        original = orc.one_matrix_numeric

        def wrapper(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(orc, "one_matrix_numeric", wrapper)
        run_verification()
        assert len(calls) == 2
        assert all(np.shape(x) == (7, 1) and np.shape(xp) == (1, 7) for x, xp in calls)

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

    def test_strong_coupling_window(self):
        report = run_verification(lambdas=(0.45,), qs=(0.5,))
        failed = [c["check"] for c in report if not c["pass"]]
        assert failed == []
