"""The output checks accept the program's real outputs and reject corrupted ones.

Each negative control corrupts one output by a little more than the
checker's tolerance and asserts that the checker reports it.  Run from the
repository root:  python3 -m unittest discover -s benchmark/tests
"""

import csv
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from harmonium import cli  # noqa: E402

import checks  # noqa: E402
from workloads import SWEEP_COUPLINGS, VERIFY_CHECKS, make_ops  # noqa: E402


def run_op(argv):
    """Run one CLI op in process; return (exit code, text written)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = cli.main(list(argv) + ["--out", str(out)])
        return code, out.read_text(encoding="utf-8")


class SweepChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        ops = make_ops("sweep_grid", 1)
        cls.cases = [(op, *run_op(op.argv())) for op in ops[:2]]

    def test_grids_are_log_then_linear(self):
        self.assertTrue(self.cases[0][0].grid.endswith(":log"))
        self.assertFalse(self.cases[1][0].grid.endswith(":log"))

    def test_real_output_passes(self):
        for op, code, text in self.cases:
            self.assertEqual(checks.check_sweep(op, text, code), [])

    def test_error_rows_are_expected(self):
        for op, code, text in self.cases:
            rows = list(csv.DictReader(io.StringIO(text)))
            self.assertEqual(len(rows), len(op.qs) * SWEEP_COUPLINGS)
            self.assertEqual(sum(1 for row in rows if row["error"]), len(op.qs))

    def test_nudged_xi_p_is_rejected(self):
        for op, code, text in self.cases:
            rows = list(csv.reader(io.StringIO(text)))
            target = 1 + SWEEP_COUPLINGS + SWEEP_COUPLINGS // 2  # mid-grid row of the second q
            xi_p = float(rows[target][3])
            rows[target][3] = repr(xi_p * (1.0 + 1e-9))
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(rows)
            problems = checks.check_sweep(op, buf.getvalue(), code)
            self.assertTrue(problems, op.grid)
            self.assertTrue(all(f"row {target}" in p for p in problems), problems)

    def test_reordered_rows_are_rejected(self):
        op, code, text = self.cases[1]
        lines = text.splitlines(keepends=True)
        lines[1], lines[2] = lines[2], lines[1]
        self.assertTrue(checks.check_sweep(op, "".join(lines), code))


class ReportChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.op = make_ops("report_crossings", 1)[0]
        cls.code, cls.text = run_op(cls.op.argv())

    def test_real_output_passes(self):
        self.assertEqual(checks.check_report(self.op, self.text, self.code), [])

    def test_shifted_crossing_is_rejected(self):
        payload = json.loads(self.text)
        payload["ratio_curves"][0]["crossing_lambda"] += 1e-7
        problems = checks.check_report(self.op, json.dumps(payload), self.code)
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("crossing", problems[0])


class VerifyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.op = make_ops("verify_scoreboard", 1)[0]
        cls.code, cls.text = run_op(cls.op.argv())

    def test_real_output_passes(self):
        self.assertEqual(checks.check_verify(self.op, self.text, self.code), [])
        self.assertEqual(len(json.loads(self.text)), VERIFY_CHECKS)

    def test_tampered_scoreboard_is_rejected(self):
        code, text = run_op(["verify", "--tamper", *self.op.argv()[1:]])
        self.assertEqual(code, 1)
        failing = [c["check"] for c in json.loads(text) if not c["pass"]]
        self.assertTrue(any(name.startswith("hamiltonian_total[") for name in failing), failing)
        self.assertTrue(any(name.startswith("kernel_interaction[") for name in failing), failing)
        problems = checks.check_verify(self.op, text, code)
        self.assertIn("exit code 1, expected 0", problems)
        self.assertTrue(any("reference of hamiltonian_total" in p for p in problems), problems)


if __name__ == "__main__":
    unittest.main()
