"""The tracer wraps every caller's binding, nests spans, and restores the package.

Run from the repository root:  python3 -m unittest discover -s benchmark/tests
"""

import math
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import harmonium  # noqa: E402
import harmonium.cli  # noqa: E402

import layers  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


class TracerTests(unittest.TestCase):
    def test_wraps_caller_bindings_and_restores(self):
        original = harmonium.model.derive_frequencies
        tracer = Tracer()
        tracer.install(harmonium)
        try:
            self.assertIsNot(harmonium.cli.derive_frequencies, original)
            self.assertIs(harmonium.cli.derive_frequencies, harmonium.model.derive_frequencies)
            self.assertIs(harmonium.oracle.energy_parametric, harmonium.mueller.energy_parametric)
            self.assertIs(harmonium.derive_frequencies, harmonium.model.derive_frequencies)
        finally:
            tracer.uninstall()
        for namespace in (harmonium, harmonium.model, harmonium.cli, harmonium.solver):
            self.assertIs(namespace.derive_frequencies, original)

    def test_spans_nest_and_self_times_add_up(self):
        tracer = Tracer()
        tracer.install(harmonium)
        try:
            with tempfile.TemporaryDirectory() as tmp:
                code = harmonium.cli.main(["solve", "--lambda", "0.3", "--q", "0.4",
                                           "--out", str(Path(tmp) / "out")])
        finally:
            tracer.uninstall()
        self.assertEqual(code, 0)
        roots = [span for span in tracer.spans if span[3] is None]
        self.assertEqual([span[0] for span in roots], ["cli.main"])
        solve = next(span for span in tracer.spans if span[0] == "solver.solve_xi_p")
        self.assertEqual(solve[3][0], "cli.cmd_solve")
        self.assertEqual(tracer.count("solver.stationarity_lhs", parent="solver.solve_xi_p"),
                         tracer.count("solver.stationarity_lhs"))
        layer_self = tracer.layer_self_seconds()
        self.assertEqual(set(layer_self), set(LAYERS))
        self.assertTrue(all(seconds >= 0.0 for seconds in layer_self.values()), layer_self)
        total = roots[0][2] - roots[0][1]
        self.assertTrue(math.isclose(sum(layer_self.values()), total, rel_tol=1e-9))


class ImportTimeParsing(unittest.TestCase):
    def test_first_cumulative_entry_wins(self):
        stderr = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:      1951 |     151663 |     numpy\n"
            "import time:       799 |     301407 |     scipy.special\n"
            "import time:         5 |          9 |   numpy\n"
            "import time:      1012 |     503282 | harmonium\n"
        )
        expected = {
            "import.numpy_s": 0.151663,
            "import.scipy_special_s": 0.301407,
            "import.harmonium_s": 0.503282,
        }
        parsed = layers.parse_importtime(stderr)
        self.assertEqual(set(parsed), set(expected))
        for metric, seconds in expected.items():
            self.assertAlmostEqual(parsed[metric], seconds, places=12)


if __name__ == "__main__":
    unittest.main()
