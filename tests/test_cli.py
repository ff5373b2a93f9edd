import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_values as ref
from harmonium import ModelParams, cli
from harmonium import oracle as orc
from harmonium import solver as slv
from harmonium.cli import main
from harmonium.errors import BracketError

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_QS = ("--q", "0.3", "--q", "0.45", "--q", "0.5", "--q", "0.6", "--q", "0.7")
SWEEP_FIXTURES = [
    ("sweep_log.csv", "1e-9:0.45:16:log", FIXTURE_QS, 0),
    ("sweep_linear.csv", "0:0.4999:16", FIXTURE_QS, 0),
    # error rows: negative couplings, and couplings past LAMBDA_MAX and the stability bound
    ("sweep_out_of_window.csv", "-0.2:0.6:17", ("--q", "0.5", "--q", "0.4"), 1),
    ("sweep_past_edge.csv", "0.4998:0.50005:6", ("--q", "0.5", "--q", "0.4"), 1),
    # roots down to 1.8e-289, and rows with none above xi_p = 1e-290
    ("sweep_decades.csv", "1e-300:1e-3:25:log", ("--q", "0.3", "--q", "0.5", "--q", "0.7"), 1),
    # 288-row sweeps of the benchmark's shape, each with one error row per q past LAMBDA_MAX
    ("sweep_grid_log.csv", "1.5e-9:0.49995:96:log", ("--q", "0.5", "--q", "0.3512", "--q", "0.6123"), 0),
    ("sweep_grid_linear.csv", "0.005:0.49993:96", ("--q", "0.5", "--q", "0.4187", "--q", "0.6655"), 0),
    # both energy columns at omega0 != 1 and at couplings down to 1e-300; 140 rows find no
    # root above xi_p = 1e-290
    ("sweep_omega2p5.csv", "1e-300:0.4999:120:log",
     ("--omega0", "2.5", "--q", "0.3", "--q", "0.5", "--q", "0.7"), 1),
]

#: A value for each flag that takes one; --tamper is store_true and takes none.
FLAG_VALUES = {"--omega0": "2.0", "--lambda": "0.3", "--lambda-grid": "0.1:0.2:3", "--q": "0.4",
               "--format": "json", "--config": "run.cfg"}

#: Every flag a subcommand does not read: the other subcommands' flags, and
#: --config, which no subcommand takes.
IGNORED_FLAGS = [
    (command, flag, FLAG_VALUES.get(flag))
    for command, (_, taken) in cli._SUBCOMMANDS.items()
    for flag in [*cli._FLAGS, "--config"]
    if flag not in (*taken, "--out")
]


def _sweep_rows(params_base, q_list, lambda_grid):
    """`sweep`'s table as one dict per row, laid out as the CLI's JSON lays it out."""
    columns, failed = slv.sweep(params_base, q_list, lambda_grid)
    return [dict(zip(columns, row)) for row in slv._rows(columns, failed)]


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

    @pytest.mark.parametrize("command", ["solve", "sweep", "figure1", "verify", "report"])
    def test_tolerances_are_not_options(self, capsys, command):
        # the root and truncation tolerances are fixed; no flag sets them
        for flag in (["--tol-root", "1e-6"], ["--tol-trunc", "1e-10"]):
            with pytest.raises(SystemExit) as exc:
                main([command, *flag])
            assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", IGNORED_FLAGS,
                             ids=[f"{c}{f}" for c, f, _ in IGNORED_FLAGS])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, capsys, command, flag, value):
        argv = [flag] if value is None else [flag, value]
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        # the subcommand's own usage line, which lists the flags it does take
        assert captured.err.startswith(f"usage: harmonium {command} ")
        assert (f"harmonium {command}: error: unrecognized arguments: {' '.join(argv)}\n"
                in captured.err)

    @pytest.mark.parametrize("command, spec", [("sweep", "nan:0.3:3"), ("sweep", "0.1:inf:3"),
                                               ("figure1", "0.1:nan:3")])
    def test_non_finite_grid_endpoint_is_usage_error(self, capsys, command, spec):
        # refused before numpy sees the endpoints, so no row is solved and no warning leaks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--lambda-grid", spec)
        assert code == 2 and out == ""
        assert err == f"error: grid endpoints must be finite, got {spec!r}\n"

    @pytest.mark.parametrize("command, spec", [("sweep", "-1e308:1e308:5"),
                                               ("figure1", "1.7e308:-1.7e308:3")])
    def test_grid_whose_span_overflows_is_usage_error(self, capsys, command, spec):
        # finite endpoints whose difference overflows would give inf and NaN couplings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, f"--lambda-grid={spec}")
        assert code == 2 and out == ""
        assert err == f"error: grid points must be finite, got {spec!r}\n"

    @pytest.mark.parametrize("command", ["solve", "sweep", "verify"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_coupling_is_usage_error(self, capsys, command, value):
        # its own message, not the stability bound's, and no row is solved
        code, out, err = run_cli(capsys, command, f"--lambda={value}")
        assert code == 2 and out == ""
        assert err == f"error: coupling must be finite, got {value}\n"

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

    @pytest.mark.parametrize("argv, omega0", [
        (("solve", "--lambda", "0.3", "--q", "0.4"), "1e155"),
        (("solve", "--lambda", "0.3", "--q", "0.4"), "1e-160"),
        (("sweep", "--lambda-grid", "0.1:0.2:3"), "1e155"),
        (("verify",), "-1"),
        (("report",), "1e-200"),
    ], ids=["solve-1e155", "solve-1e-160", "sweep-1e155", "verify--1", "report-1e-200"])
    def test_omega0_outside_its_window_is_usage_error(self, capsys, argv, omega0):
        code, out, err = run_cli(capsys, *argv, "--omega0", omega0)
        assert code == 2 and out == ""
        assert err == f"error: omega0 must lie in [1e-150, 1e150], got {float(omega0)}\n"

    def test_missing_coupling_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "solve")
        assert code == 2 and "error:" in err and out == ""

    def test_more_than_one_q_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--lambda", "0.3", "--q", "0.4", "--q", "0.5")
        assert code == 2 and out == ""
        assert "exactly one --q" in err

    def test_unstable_coupling(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--lambda", "0.6")
        assert code == 2 and "0.5" in err

    @pytest.mark.parametrize("fmt, fixture", [("csv", "solve_q04.csv"), ("json", "solve_q04.json")])
    def test_output_matches_frozen_bytes(self, capsys, fmt, fixture):
        # the fixtures hold the output of `python -m harmonium solve --lambda 0.3 --q 0.4 --format FMT`
        code, out, _ = run_cli(capsys, "solve", "--lambda", "0.3", "--q", "0.4", "--format", fmt)
        assert code == 0
        assert out == (FIXTURES / fixture).read_bytes().decode("utf-8")

    def test_uncoupled_interaction_prints_as_positive_zero(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "--lambda", "0")
        header, row = (line.split(",") for line in out.splitlines())
        assert row[header.index("e_interaction")] == "0"
        _, out, _ = run_cli(capsys, "solve", "--lambda", "0", "--format", "json")
        assert '\n  "e_interaction": 0.0,\n' in out

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

    def test_exponent_outside_the_window_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--lambda-grid", "0.1:0.3:3", "--q", "0.2")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep")
        assert code == 2 and "lambda-grid" in err

    def test_bad_grid_spec(self, capsys):
        for spec in ("0.1:0.3", "a:b:3", "0.1:0.3:1", "0:0.3:5:log"):
            code, _, err = run_cli(capsys, "sweep", "--lambda-grid", spec)
            assert code == 2, spec

    def test_dimensionless_columns_do_not_depend_on_omega0(self, capsys):
        # omega0 cancels from the stationarity condition: every column but the
        # two energies keeps its bytes at every omega0
        grid = ("--lambda-grid", "1e-9:0.4999:200:log", "--q", "0.4", "--q", "0.5", "--q", "0.65")
        tables = {}
        for omega0 in ("0.5", "1", "3", "7.3"):
            code, out, _ = run_cli(capsys, "sweep", "--omega0", omega0, *grid)
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()]
            tables[omega0] = [row[:5] + row[7:] for row in rows]
        assert len(tables["1"]) == 601
        assert all(table == tables["1"] for table in tables.values())

    def test_log_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--lambda-grid", "1e-3:1e-1:3:log",
                               "--q", "0.5")
        assert code == 0
        lams = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert lams == pytest.approx([1e-3, 1e-2, 1e-1], rel=1e-12)

    def test_row_keys_are_the_csv_header(self, capsys):
        # failed rows (-0.1, 0.5) carry the same keys as solved ones
        code, out, _ = run_cli(capsys, "sweep", "--lambda-grid=-0.1:0.5:4", "--q", "0.4")
        assert code == 1
        header = out.splitlines()[0].split(",")
        rows = _sweep_rows(ModelParams(), [0.4], [-0.1, 0.1, 0.3, 0.5])
        assert [row["error"] is None for row in rows] == [False, True, True, False]
        assert all(list(row) == header for row in rows)

    def test_json_with_failed_rows_matches_frozen_bytes(self, capsys):
        # the fixture holds the output of
        # `python -m harmonium sweep --lambda-grid=-0.2:0.6:17 --q 0.5 --q 0.4 --format json`
        code, out, _ = run_cli(capsys, "sweep", "--lambda-grid=-0.2:0.6:17",
                               "--q", "0.5", "--q", "0.4", "--format", "json")
        assert code == 1
        assert out == (FIXTURES / "sweep_out_of_window.json").read_bytes().decode("utf-8")

    @pytest.mark.parametrize(
        "fixture, grid, qs, exit_code", SWEEP_FIXTURES, ids=[f"{f}-{g}" for f, g, *_ in SWEEP_FIXTURES]
    )
    def test_output_matches_frozen_bytes(self, capsys, fixture, grid, qs, exit_code):
        # fixtures hold the output of `python -m harmonium sweep --lambda-grid=GRID`
        # with the given --q flags; any changed byte is a changed number
        code, out, _ = run_cli(capsys, "sweep", f"--lambda-grid={grid}", *qs)
        assert code == exit_code
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

    def test_past_the_edge_json_matches_frozen_bytes(self, capsys):
        # the fixture holds the output of
        # `python -m harmonium figure1 --lambda-grid 0.4998:0.49995:4 --format json`
        code, out, _ = run_cli(capsys, "figure1", "--lambda-grid", "0.4998:0.49995:4",
                               "--format", "json")
        assert code == 1
        assert out == (FIXTURES / "figure1_edge.json").read_bytes().decode("utf-8")

    def test_a_failed_exponent_keeps_the_other_ones_columns(self, capsys):
        # at 1e-200 and 1e-175 only q = 0.4 falls below the 1e-290 floor; q = 0.3 solves
        code, out, _ = run_cli(capsys, "figure1", "--lambda-grid", "1e-200:1e-150:3:log")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert code == 1
        for row in rows[:2]:
            assert row[2:4] == ["nan", "nan"]
            assert float(row[4]) > 0.0
        assert "nan" not in rows[2]

    @pytest.mark.parametrize("key, value", [("q", "0.2"), ("lambda", "0.3")])
    def test_q_and_lambda_are_usage_errors(self, capsys, key, value):
        # figure1 fixes its exponents and takes its couplings from --lambda-grid only
        with pytest.raises(SystemExit) as exc:
            main(["figure1", f"--{key}", value])
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_passing_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--lambda", "0.3", "--q", "0.5")
        assert code == 0
        checks = json.loads(out)
        assert checks and all(c["pass"] for c in checks)

    def test_default_flags_match_frozen_bytes(self, capsys):
        # the fixture holds the output of `python -m harmonium verify`
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out == (FIXTURES / "verify_default.json").read_bytes().decode("utf-8")

    def test_scoreboard_does_not_go_through_the_public_wrappers(self, capsys, monkeypatch):
        # run_verification shares the wrappers' kernels, not the wrappers: with each
        # wrapper made to raise, the default scoreboard keeps its frozen bytes
        def refuse(*args, **kwargs):
            raise AssertionError("a public quadrature wrapper ran")

        for name in ("one_matrix_numeric", "hamiltonian_expectation_numeric",
                     "kernel_interaction_numeric"):
            monkeypatch.setattr(orc, name, refuse)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out == (FIXTURES / "verify_default.json").read_bytes().decode("utf-8")

    def test_lambda_and_q_match_frozen_bytes(self, capsys):
        # the fixture holds the output of `python -m harmonium verify --lambda 0.45 --q 0.3 --q 0.7`
        code, out, _ = run_cli(capsys, "verify", "--lambda", "0.45", "--q", "0.3", "--q", "0.7")
        assert code == 0
        assert out == (FIXTURES / "verify_lambda045.json").read_bytes().decode("utf-8")

    @pytest.mark.parametrize("fixture, argv", [
        ("verify_lambda02731.json", ("--lambda", "0.2731", "--q", "0.3512", "--q", "0.6123")),
        ("verify_lambda001.json", ("--lambda", "0.01", "--q", "0.31", "--q", "0.69")),
    ], ids=["lambda0.2731", "lambda0.01"])
    def test_off_default_couplings_match_frozen_bytes(self, capsys, fixture, argv):
        # the fixtures hold the output of `python -m harmonium verify ARGV`
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 0
        assert out == (FIXTURES / fixture).read_bytes().decode("utf-8")

    def test_tamper_matches_frozen_bytes(self, capsys):
        # the fixture holds the output of `python -m harmonium verify --tamper`
        code, out, _ = run_cli(capsys, "verify", "--tamper")
        assert code == 1
        assert out == (FIXTURES / "verify_tamper.json").read_bytes().decode("utf-8")

    @pytest.mark.parametrize("fixture, argv", [
        ("verify_default.json", ()),
        ("verify_lambda02731.json", ("--lambda", "0.2731", "--q", "0.3512", "--q", "0.6123")),
    ], ids=["default", "lambda0.2731"])
    def test_bytes_do_not_depend_on_blas_threads(self, fixture, argv):
        # the gamma powers on the kernel grid are BLAS matrix products, whose
        # summation order may follow the thread count; OpenBLAS reads it once
        # at import, hence one process per setting.  Unset is the package's
        # default of one thread; a caller's 2 is compared too, as the suite
        # runs on 2-core machines.
        caller = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        outs = {
            threads: subprocess.run(
                [sys.executable, "-m", "harmonium", "verify", *argv],
                capture_output=True, check=True,
                env=caller if threads is None else {**caller, "OPENBLAS_NUM_THREADS": threads},
            ).stdout
            for threads in (None, "1", "2")
        }
        assert outs[None] == outs["1"] == outs["2"] == (FIXTURES / fixture).read_bytes()

    @pytest.mark.parametrize("qs, error", [
        (("0.2", "1.5"), "exponent q must lie in [0.3, 0.7], got 0.2"),
        (("1.5", "0.2"), "kernel powers must lie in (0, 1), got q=1.5, r=-0.5"),
        (("0.4", "0.25", "0"), "exponent q must lie in [0.3, 0.7], got 0.25"),
    ])
    def test_first_bad_exponent_names_the_error(self, capsys, qs, error):
        # each exponent's kernel, then its window, in the user's order
        argv = ["verify", "--lambda", "0.2"] + [arg for q in qs for arg in ("--q", q)]
        assert run_cli(capsys, *argv) == (2, "", f"error: {error}\n")

    def test_tamper_flips_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--lambda", "0.3", "--q", "0.5",
                               "--tamper")
        assert code == 1
        checks = json.loads(out)
        assert any(not c["pass"] for c in checks)

    def test_exponents_sharing_a_check_tag_are_refused(self, capsys, monkeypatch):
        # 0.4 and 0.4000001 both print as q=0.4, which would repeat check names
        def no_quadrature(*a, **k):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(orc, "gauss_hermite_rule", no_quadrature)
        code, out, err = run_cli(capsys, "verify", "--lambda", "0.3", "--q", "0.4",
                                 "--q", "0.4000001")
        assert code == 2 and out == ""
        assert err == ("error: the distinct values [0.4, 0.4000001] print as the check-name "
                       "tags ['q=0.4', 'q=0.4']\n")

    @pytest.mark.parametrize("coupling", ["-0.1", "0.46"])
    def test_coupling_outside_the_oracle_window(self, capsys, monkeypatch, coupling):
        # refused with one error line before any quadrature rule is built
        def no_quadrature(*a, **k):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(orc, "gauss_hermite_rule", no_quadrature)
        code, out, err = run_cli(capsys, "verify", "--lambda", coupling)
        assert code == 2 and out == ""
        assert err == (
            f"error: quadrature oracle is validated for coupling in [0, 0.45], got {coupling}\n"
        )


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

    def test_omega0_and_q_match_frozen_bytes(self, capsys):
        # the fixture holds the output of `python -m harmonium report --omega0 3 --q 0.45`
        code, out, _ = run_cli(capsys, "report", "--omega0", "3", "--q", "0.45")
        assert code == 0
        assert out == (FIXTURES / "report_omega3_q045.json").read_bytes().decode("utf-8")

    @pytest.mark.parametrize("case", json.loads((FIXTURES / "report_cases.json").read_text()),
                             ids=lambda case: " ".join(case["argv"][1:]))
    def test_cases_match_frozen_bytes(self, capsys, case):
        # frozen while report still made one solve per exponent and one for the recovery:
        # six exponents, a repeated one, q = 1/2 among others, and exponents outside the
        # window, of which the first in the user's order names the error
        assert run_cli(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])

    def test_report_makes_no_lapack_call(self, capsys, monkeypatch):
        # the scaling fit is a closed form: a least-squares solve through numpy.linalg on
        # the report path would raise here
        def refuse(*args, **kwargs):
            raise AssertionError("report reached a LAPACK least-squares solve")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        monkeypatch.setattr(np, "polyfit", refuse)
        frozen = (FIXTURES / "report_default.json").read_bytes().decode("utf-8")
        assert run_cli(capsys, "report") == (0, frozen, "")

    def test_repeated_q_is_reported_once(self, capsys):
        once = run_cli(capsys, "report", "--q", "0.4")
        assert run_cli(capsys, "report", "--q", "0.4", "--q", "0.4") == once
        assert len(json.loads(once[1])["ratio_curves"]) == 1


def _per_cell_csv_text(rows):
    # the CSV writer as it was before rows were formatted by one template
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row.values()])
    return buf.getvalue()


_CSV_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308, 1.7e308]),
    st.integers(-10**6, 10**6),
)
_CSV_TEXT = st.one_of(st.none(), st.text(st.sampled_from('ab ,;"\'\n\r\t='), max_size=12))


@st.composite
def _csv_tables(draw):
    """Columns of one length, each holding only numbers or only None and text."""
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=6).filter(any))
    n = draw(st.integers(1, 5))
    return {f"c{j}": draw(st.lists(_CSV_NUMBERS if number else _CSV_TEXT, min_size=n, max_size=n))
            for j, number in enumerate(kinds)}


def _json_nulls(rows):
    """The rows with each NaN as None, as JSON writes them."""
    return [{k: None if isinstance(v, float) and math.isnan(v) else v for k, v in row.items()}
            for row in rows]


class TestOutput:
    @settings(max_examples=300, deadline=None)
    @given(columns=_csv_tables())
    def test_csv_text_matches_the_per_cell_writer(self, columns):
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        assert cli._csv_text(columns) == _per_cell_csv_text(rows)

    def test_csv_text_of_sweep_rows_matches_the_per_cell_writer(self):
        # error rows ahead of, among and after solved ones, the uncoupled row at -0.0, and
        # 1e-200, whose root falls below the 1e-290 floor at q = 0.5 but not at q = 0.3
        grid = [-0.1, -0.0, 1e-300, 1e-200, 1e-9, 0.3, 0.49995]
        rows = _sweep_rows(ModelParams(), [0.3, 0.5], grid)
        assert [r["error"] is not None for r in rows] == [True, False, True, False, False, False,
                                                          True, True, False, True, True, False,
                                                          False, True]
        assert rows[1]["lambda"] == 0.0 and math.copysign(1.0, rows[1]["lambda"]) == -1.0
        columns, failed = slv.sweep(ModelParams(), [0.3, 0.5], grid)
        text = cli._csv_text(columns, failed)
        assert text == _per_cell_csv_text(rows)
        assert text.splitlines()[2].startswith("0.29999999999999999,-0,0,0,nan,")

    def test_sweep_json_is_the_rows_as_json(self, capsys):
        # 1e-200 and 8.7e-161 fail at q = 0.5 only, and 0.49995 at both
        code, out, _ = run_cli(capsys, "sweep", "--lambda-grid=1e-200:0.49995:6:log",
                               "--q", "0.3", "--q", "0.5", "--format", "json")
        assert code == 1
        rows = _sweep_rows(ModelParams(), [0.3, 0.5], cli._parse_grid("1e-200:0.49995:6:log"))
        failed = [False] * 5 + [True] * 3 + [False] * 3 + [True]
        assert [r["error"] is not None for r in rows] == failed
        assert out == json.dumps(_json_nulls(rows), indent=2) + "\n"

    def test_out_writes_atomically(self, capsys, tmp_path):
        target = tmp_path / "result.csv"
        code, out, _ = run_cli(capsys, "solve", "--lambda", "0.3", "--out", str(target))
        assert code == 0 and out == ""
        text = target.read_text()
        assert text.startswith("omega0,") and text.endswith("\n")
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".harmonium-")]
        assert leftovers == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_out_takes_the_mode_of_a_new_file(self, capsys, tmp_path, umask, mode):
        # the umask alone decides, as for a file the shell would create
        target = tmp_path / "result.csv"
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(capsys, "solve", "--lambda", "0.3", "--out", str(target))
        finally:
            os.umask(old)
        assert code == 0
        assert target.stat().st_mode & 0o777 == mode
        assert os.listdir(tmp_path) == ["result.csv"]

    @pytest.mark.parametrize("target, reason", [
        ("missing/x.csv", "No such file or directory"),
        ("existing", "Is a directory"),
    ])
    def test_unwritable_out_is_a_domain_error(self, capsys, tmp_path, target, reason):
        (tmp_path / "existing").mkdir()
        out_path = tmp_path / target
        code, out, err = run_cli(capsys, "solve", "--lambda", "0.3", "--out", str(out_path))
        assert code == 2 and out == ""
        assert err == f"error: cannot write {out_path}: {reason}\n"
        assert sorted(os.listdir(tmp_path)) == ["existing"]
        assert os.listdir(tmp_path / "existing") == []

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "harmonium", "solve", "--lambda", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].startswith("omega0,")

    def test_run_freezes_the_import_heap(self):
        # cli.run, the entry of `python -m harmonium` and of the console script,
        # moves what the imports made out of the exit-time collections' reach
        code = ("import atexit, gc, sys; "
                "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr)); "
                "from harmonium.cli import run; run()")
        proc = subprocess.run(
            [sys.executable, "-c", code, "solve", "--lambda", "0.3", "--q", "0.4"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == (FIXTURES / "solve_q04.csv").read_bytes()
        assert proc.stderr == b"True\n"
