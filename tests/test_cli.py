import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reference_values as ref
from harmonium import cli
from harmonium.cli import main
from harmonium.errors import BracketError

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_QS = ("--q", "0.3", "--q", "0.45", "--q", "0.5", "--q", "0.6", "--q", "0.7")

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_parser_is_built_once(self, capsys):
        run_cli(capsys, "solve", "--lambda", "0.1")
        misses = cli._build_parser.cache_info().misses
        run_cli(capsys, "solve", "--lambda", "0.2")
        run_cli(capsys, "sweep", "--lambda", "0.2", "--q", "0.4")
        assert cli._build_parser.cache_info().misses == misses == 1
        assert cli._build_parser() is cli._build_parser()

    def test_parses_share_no_state(self):
        parser = cli._build_parser()
        assert parser.parse_args(["sweep", "--q", "0.4", "--q", "0.3"]).q == [0.4, 0.3]
        assert parser.parse_args(["sweep"]).q is None

    def test_main_looks_up_the_subcommand_late(self, monkeypatch):
        seen = []

        def fake_solve(args):
            seen.append(args.coupling)
            return 7

        monkeypatch.setattr(cli, "cmd_solve", fake_solve)
        assert main(["solve", "--lambda", "0.25"]) == 7
        assert seen == [0.25]


class TestSolve:
    def test_csv_output(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--lambda", "0.3")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["xi"]) == pytest.approx(ref.XI_03, rel=1e-15)
        assert float(row["e_total"]) == pytest.approx(ref.E_TOTAL_03, rel=1e-15)
        assert float(row["e_exact"]) == pytest.approx(ref.E_TOTAL_03, rel=1e-15)
        # 17 significant digits survive a parse/format round trip exactly
        assert f"{float(row['xi']):.17g}" == row["xi"]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--lambda", "0.3", "--q", "0.4",
                               "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["q"] == 0.4
        assert record["xi_p"] == pytest.approx(ref.XI_P_Q04_03, rel=1e-12)
        assert record["ratio"] == pytest.approx(ref.XI_P_Q04_03 / ref.XI_03, rel=1e-12)
        assert record["residual"] <= 1e-13 * max(1.0, record["rhs"])

    def test_uncoupled_ratio_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--lambda", "0", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["xi_p"] == 0.0 and record["ratio"] is None

    def test_uncoupled_ratio_is_nan_in_csv(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--lambda", "0")
        assert code == 0
        header, row = (line.split(",") for line in out.splitlines())
        assert row[header.index("ratio")] == "nan"

    def test_missing_coupling_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "solve")
        assert code == 2 and "error:" in err and out == ""

    def test_unstable_coupling(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--lambda", "0.6")
        assert code == 2 and "0.5" in err

    def test_tolerance_floor(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--lambda", "0.3", "--tol-root", "1e-16")
        assert code == 2

    def test_solver_failure_maps_to_exit_3(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise BracketError("no sign change")

        monkeypatch.setattr("harmonium.solver.solve_xi_p", boom)
        code, _, err = run_cli(capsys, "solve", "--lambda", "0.3")
        assert code == 3 and "solver failure" in err


class TestSweep:
    def test_grid_and_ordering(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--lambda-grid", "0.1:0.3:3",
                               "--q", "0.5", "--q", "0.4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("q,lambda,xi,xi_p,ratio,e_p_total,e_ex_total,purity,"
                            "linear_entropy,linear_entropy_exact,dual_lambda,"
                            "dual_linear_entropy,error")
        assert len(lines) == 7
        qs = [float(line.split(",")[0]) for line in lines[1:]]
        lams = [float(line.split(",")[1]) for line in lines[1:]]
        assert qs == [0.4, 0.4, 0.4, 0.5, 0.5, 0.5]
        assert lams == [0.1, 0.2, 0.3, 0.1, 0.2, 0.3]

    def test_single_coupling_shortcut(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--lambda", "0.3", "--q", "0.5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["e_p_total"] == pytest.approx(ref.E_TOTAL_03, rel=1e-12)
        assert payload[0]["error"] is None

    def test_failed_rows_flip_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--lambda-grid", "0.4999:0.49995:2",
                               "--q", "0.5", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        errors = [row["error"] for row in payload]
        assert errors[0] is None and "coupling" in errors[1]
        assert payload[1]["xi_p"] is None

    def test_missing_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep")
        assert code == 2 and "lambda-grid" in err

    def test_bad_grid_spec(self, capsys):
        for spec in ("0.1:0.3", "a:b:3", "0.1:0.3:1", "0:0.3:5:log"):
            code, _, err = run_cli(capsys, "sweep", "--lambda-grid", spec)
            assert code == 2, spec

    def test_log_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--lambda-grid", "1e-3:1e-1:3:log",
                               "--q", "0.5")
        assert code == 0
        lams = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert lams == pytest.approx([1e-3, 1e-2, 1e-1], rel=1e-12)


    @pytest.mark.parametrize(
        "fixture, grid",
        [("sweep_log.csv", "1e-9:0.45:16:log"), ("sweep_linear.csv", "0:0.4999:16")],
    )
    def test_output_matches_frozen_bytes(self, capsys, fixture, grid):
        # fixtures hold the output of `python -m harmonium sweep --lambda-grid GRID`
        # with FIXTURE_QS; any changed byte is a changed number
        code, out, _ = run_cli(capsys, "sweep", "--lambda-grid", grid, *FIXTURE_QS)
        assert code == 0
        assert out == (FIXTURES / fixture).read_bytes().decode("utf-8")


class TestFigure1:
    def test_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "figure1")
        assert code == 0
        assert "\r" not in out
        lines = out.splitlines()
        assert lines[0] == "lambda,xi,xi_p_q04,R_q04,xi_p_q03,R_q03"
        assert len(lines) == 100
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == pytest.approx(0.005)
        assert float(last[0]) == pytest.approx(0.495)
        # the ratio curves start above one and end below one
        assert float(first[3]) > 1.0 and float(last[3]) < 1.0
        assert float(first[5]) > 1.0 and float(last[5]) < 1.0

    def test_custom_grid(self, capsys):
        code, out, _ = run_cli(capsys, "figure1", "--lambda-grid", "0.1:0.3:3")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_default_grid_matches_frozen_bytes(self, capsys):
        # the fixture holds the output of `python -m harmonium figure1`
        code, out, _ = run_cli(capsys, "figure1")
        assert code == 0
        assert out == (FIXTURES / "figure1_default.csv").read_bytes().decode("utf-8")

    def test_past_the_edge_matches_frozen_bytes(self, capsys):
        # the last coupling, 0.49995, has an exact xi but no variational root
        code, out, _ = run_cli(capsys, "figure1", "--lambda-grid", "0.4998:0.49995:4")
        assert code == 1
        assert out == (FIXTURES / "figure1_edge.csv").read_bytes().decode("utf-8")
        last = out.splitlines()[-1].split(",")
        assert last[1] != "nan" and last[2:] == ["nan"] * 4


class TestConfig:
    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults for the small study\nlambda = 0.1\nformat = json\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg), "--lambda", "0.3")
        assert code == 0
        record = json.loads(out)  # format comes from the config
        assert record["lambda"] == 0.3  # flag wins over the config value

    def test_config_supplies_q_list(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 0.5, 0.4\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--lambda", "0.3")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wavelength = 0.1\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg), "--lambda", "0.3")
        assert code == 2 and "wavelength" in err

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda 0.1\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2 and "key=value" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--config", "/nonexistent.cfg")
        assert code == 2 and "cannot read config" in err


class TestVerify:
    def test_passing_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--lambda", "0.3", "--q", "0.5")
        assert code == 0
        checks = json.loads(out)
        assert checks and all(c["pass"] for c in checks)

    def test_tamper_flips_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--lambda", "0.3", "--q", "0.5",
                               "--tamper")
        assert code == 1
        checks = json.loads(out)
        assert any(not c["pass"] for c in checks)


class TestReport:
    def test_payload(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--q", "0.4")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_recovery_q05"]["max_abs_xi_gap"] <= 1e-10
        assert payload["exact_recovery_q05"]["max_rel_energy_gap"] <= 1e-10
        curve = payload["ratio_curves"][0]
        assert curve["q"] == 0.4
        assert 0.30 < curve["crossing_lambda"] < 0.33
        assert curve["scaling_exponent_expected"] == pytest.approx(5.0 / 3.0)
        assert abs(curve["scaling_exponent"] - 5.0 / 3.0) / (5.0 / 3.0) < 0.02
        assert payload["spectral_duality_max_gap"] <= 1e-12
        hf = {entry["lambda"]: entry for entry in payload["mean_field"]}
        assert hf[0.1]["omega_hf"] == pytest.approx(ref.HF_OMEGA_010, rel=1e-10)
        assert hf[0.36]["omega_hf"] == pytest.approx(ref.HF_OMEGA_036, rel=1e-10)
        assert hf[0.1]["e_hf"] >= hf[0.1]["e_exact"]
        note = payload["mean_field_note"]
        assert "omega0*sqrt(1 - lambda)" in note and "2*omega0*sqrt(1 - lambda)" in note

    def test_default_flags_match_frozen_bytes(self, capsys):
        # the fixture holds the output of `python -m harmonium report`
        code, out, _ = run_cli(capsys, "report")
        assert code == 0
        assert out == (FIXTURES / "report_default.json").read_bytes().decode("utf-8")


class TestOutput:
    def test_out_writes_atomically(self, capsys, tmp_path):
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(capsys, "solve", "--lambda", "0.3", "--out", str(target))
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.startswith("omega0,") and text.endswith("\n")
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".harmonium-")]
        assert leftovers == []

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "harmonium", "solve", "--lambda", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].startswith("omega0,")
