"""The benchmark's reference arithmetic against the frozen 50-digit values.

Run from the repository root:  python3 -m unittest discover -s benchmark/tests
"""

import importlib.util
import math
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import refmath  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "reference_values", BENCH_DIR.parent / "tests" / "reference_values.py")
REF = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(REF)


class ClosedForms(unittest.TestCase):
    def assertRel(self, value, reference, rel):
        self.assertLessEqual(abs(value - reference), rel * abs(reference), (value, reference))

    def test_xi(self):
        for lam, ref in ((0.3, REF.XI_03), (0.1, REF.XI_01), (0.45, REF.XI_45), (0.01, REF.XI_001)):
            self.assertRel(refmath.xi(lam), ref, 1e-14)

    def test_xi_keeps_relative_precision_at_small_coupling(self):
        # xi = lam^2/16 (1 + 2 lam + O(lam^2)) as lam -> 0.
        for lam in (1e-9, 1e-7):
            self.assertRel(refmath.xi(lam), lam * lam / 16.0 * (1.0 + 2.0 * lam), 1e-12)

    def test_omega_s_and_rhs(self):
        self.assertRel(refmath.omega_s(0.3), REF.OMEGA_S_03, 1e-15)
        for lam, ref in ((0.3, REF.RHS_03), (0.1, REF.RHS_01), (0.45, REF.RHS_45)):
            self.assertRel(refmath.rhs(lam), ref, 1e-14)

    def test_exact_energy(self):
        self.assertRel(refmath.exact_energy(0.3), REF.E_TOTAL_03, 1e-15)
        self.assertRel(refmath.exact_energy(0.1), REF.E_TOTAL_01, 1e-15)

    def test_energy_terms(self):
        xi = REF.XI_03
        self.assertRel(refmath.kinetic(0.3, xi), REF.E_KINETIC_03, 1e-14)
        self.assertRel(refmath.interaction(0.3, 0.5, xi), REF.E_INTERACTION_03, 1e-14)
        self.assertRel(refmath.parametric_energy(0.3, 0.5, xi), REF.E_TOTAL_03, 1e-14)

    def test_mean_field(self):
        # checks.py expects omega_hf = E_hf = sqrt(1 - lam).
        self.assertRel(math.sqrt(1.0 - 0.1), REF.HF_OMEGA_010, 1e-15)
        self.assertRel(math.sqrt(1.0 - 0.36), REF.HF_OMEGA_036, 1e-15)


class Roots(unittest.TestCase):
    def test_frozen_roots(self):
        for q, lam, ref in ((0.4, 0.3, REF.XI_P_Q04_03), (0.3, 0.3, REF.XI_P_Q03_03),
                            (0.4, 0.1, REF.XI_P_Q04_01)):
            self.assertLessEqual(abs(refmath.root(q, lam) / ref - 1.0), 1e-14)

    def test_exact_recovery_at_half(self):
        for lam in (1e-9, 1e-4, 0.1, 0.3, 0.45, 0.4948):
            self.assertLessEqual(abs(refmath.root(0.5, lam) / refmath.xi(lam) - 1.0), 1e-13)

    def test_residual_contract(self):
        for q in (0.3, 0.45, 0.7):
            for lam in (1e-9, 1e-5, 0.2, 0.4948):
                rhs = refmath.rhs(lam)
                residual = abs(refmath.lhs(q, refmath.root(q, lam)) - rhs)
                self.assertLessEqual(residual, 1e-13 * max(1.0, rhs))

    def test_root_bracket_detects_relative_error(self):
        for q, lam in ((0.35, 2e-5), (0.65, 0.25)):
            root = refmath.root(q, lam)
            self.assertTrue(refmath.root_is_bracketed(q, lam, root))
            self.assertFalse(refmath.root_is_bracketed(q, lam, root * (1.0 + 1e-9)))
            self.assertFalse(refmath.root_is_bracketed(q, lam, root * (1.0 - 1e-9)))


class Crossing(unittest.TestCase):
    def test_crossing_is_where_xi_p_meets_xi(self):
        for q in (0.3, 0.4, 0.6, 0.7):
            lam = refmath.crossing(q)
            self.assertTrue(0.29 < lam < 0.32, lam)
            self.assertLessEqual(abs(refmath.root(q, lam) / refmath.xi(lam) - 1.0), 1e-10)

    def test_no_crossing_at_half(self):
        with self.assertRaises(ValueError):
            refmath.crossing(0.5)


class ScalingFit(unittest.TestCase):
    def test_fit_couplings(self):
        self.assertEqual(len(refmath.SCALING_COUPLINGS), 8)
        self.assertAlmostEqual(refmath.SCALING_COUPLINGS[0], 1e-4, delta=1e-19)
        self.assertAlmostEqual(refmath.SCALING_COUPLINGS[-1], 1e-3, delta=1e-18)

    def test_exponent_two_at_half(self):
        # xi ~ lam^2/16 at small coupling.
        self.assertAlmostEqual(refmath.scaling_fit(0.5), 2.0, delta=1e-3)

    def test_exponent_far_from_half(self):
        # Within 1 % of 1/max(q, 1 - q) at the edges of the q window.
        for q in (0.3, 0.7):
            self.assertAlmostEqual(refmath.scaling_fit(q), 1.0 / 0.7, delta=0.01 / 0.7)


if __name__ == "__main__":
    unittest.main()
