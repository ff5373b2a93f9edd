"""Command-line front end.

Subcommands: solve (one stationarity problem), sweep (grids of them),
figure1 (the two ratio curves on the standard grid), verify (quadrature
cross-checks as JSON), report (crossings, scaling exponents, mean-field
summary).  Each takes only the flags its cmd_* reads (`_SUBCOMMANDS`), and
argparse holds their types and defaults.  Outputs are CSV (comma separated,
header row, LF, UTF-8, 17 significant digits) or JSON, written atomically
when --out is given; an --out that cannot be written is a domain error.
One solver batch takes all of a command's exponents (verify: per coupling),
and tables stay columns up to the writer, which formats a repeated number once.
The parser is built once per process; `main` dispatches to the module's
`cmd_<subcommand>` function by name at call time.

Exit codes: 0 success, 1 failed checks or too many failed rows, 2 domain
error or bad usage, 3 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import entropy as ent
from . import oracle as orc
from . import solver as slv
from .errors import BracketError, DomainError, NoCrossingError
from .model import (LAMBDA_STABILITY, ModelParams, _xi, derive_frequencies, exact_energy,
                    hartree_fock)
from .mueller import KernelSpec, energy_parametric

__all__ = ["main", "run"]

_HF_NOTE = (
    "The mean-field functional omega/2 + (1 - lambda)*omega0^2/(2*omega) attains its "
    "minimum omega0*sqrt(1 - lambda) at omega = omega0*sqrt(1 - lambda). A commonly "
    "quoted closed form reads 2*omega0*sqrt(1 - lambda); that value is twice the "
    "functional's own minimum and misses the lambda = 0 limit E = omega0, so this "
    "toolkit reports the functional minimum and records the discrepancy here instead "
    "of asserting either value against the other."
)


def _parse_grid(text: str) -> list[float]:
    """Parse start:stop:count[:log] into an explicit grid."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise DomainError(f"grid must look like start:stop:count[:log], got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise DomainError(f"unparseable grid {text!r}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"grid endpoints must be finite, got {text!r}")
    if count < 2:
        raise DomainError(f"grids need at least 2 points, got {count}")
    if len(parts) == 4 and (start <= 0.0 or stop <= 0.0):
        raise DomainError("log grids need positive endpoints")
    with np.errstate(over="ignore", invalid="ignore"):  # a linear span can overflow: see below
        grid = (np.geomspace if len(parts) == 4 else np.linspace)(start, stop, count)
    if not np.isfinite(grid).all():
        raise DomainError(f"grid points must be finite, got {text!r}")
    return grid.tolist()


def _csv_field(value) -> str:
    """A cell as csv.writer writes it in a row: None empty, text quoted if it must be."""
    if value is None:
        return ""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((value, None))  # "<cell>,\n"
    return buf.getvalue()[:-2]


def _csv_text(columns: dict, failed=False) -> str:
    """A table given by its columns (`solver._rows`) under a header of their names.
    Each column is formatted at its own shape before it is spread over the rows,
    numbers by "%.17g", so a number the table repeats is formatted once."""
    texts = {}
    for name, col in columns.items():
        values = np.asarray(col)
        cells = values.ravel().tolist()
        if values.dtype.kind in "iuf":
            cells = (",".join(["%.17g"] * len(cells)) % tuple(cells)).split(",")
        else:
            cells = list(map(_csv_field, cells))
        texts[name] = np.array(cells, object).reshape(values.shape)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(columns)
    buf.write("\n".join(map(",".join, slv._rows(texts, failed, "nan"))) + "\n")
    return buf.getvalue()


def _json_ready(obj):
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _json_text(obj) -> str:
    return json.dumps(_json_ready(obj), indent=2) + "\n"


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    # a fresh name created with mode 0o666, so the umask sets the mode of `out`
    # as for any new file (mkstemp's would be 0o600)
    tmp = os.path.join(os.path.dirname(os.path.abspath(out)), f".harmonium-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, out)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror}") from None


def _emit_table(args, columns: dict, failed: np.ndarray, masked=False) -> int:
    """Write the table as CSV or as a JSON list of rows, the rows `masked` marks
    reading NaN (`solver._rows`); exit code 1 when over a tenth of rows failed."""
    text = (_json_text([dict(zip(columns, row)) for row in slv._rows(columns, masked)])
            if args.format == "json" else _csv_text(columns, masked))
    _emit(text, args.out)
    return 1 if failed.sum() > 0.1 * failed.size else 0


def cmd_solve(args) -> int:
    lam = args.coupling
    if lam is None:
        raise DomainError("a coupling is required; pass --lambda")
    if args.q is not None and len(args.q) != 1:
        raise DomainError("this subcommand takes exactly one --q")
    q = 0.5 if args.q is None else args.q[0]
    params = ModelParams(omega0=args.omega0, coupling=lam)
    f = derive_frequencies(params)
    sol = slv.solve_xi_p(params, q)
    e_p = energy_parametric(params, KernelSpec.sum_one(q), sol.xi_p)
    e_ex = exact_energy(params)
    record = {
        "omega0": params.omega0,
        "lambda": lam,
        "q": q,
        "xi": f.xi,
        "xi_p": sol.xi_p,
        "ratio": sol.xi_p / f.xi if f.xi > 0.0 else float("nan"),
        "rhs": sol.rhs,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "e_kinetic": e_p.kinetic,
        "e_external": e_p.external,
        "e_interaction": e_p.interaction,
        "e_total": e_p.total,
        "e_exact": e_ex.total,
        "purity": ent.purity(sol.xi_p),
        "linear_entropy": ent.linear_entropy(sol.xi_p),
        "quasiparticle_weight": ent.quasiparticle_weight(sol.xi_p),
    }
    _emit(_json_text(record) if args.format == "json" else _csv_text(record), args.out)
    return 0


def _grid_from_args(args) -> list[float]:
    if args.lambda_grid is not None:
        return _parse_grid(args.lambda_grid)
    if args.coupling is not None:
        if not math.isfinite(args.coupling):
            raise DomainError(f"coupling must be finite, got {args.coupling}")
        return [args.coupling]
    raise DomainError("a coupling grid is required; pass --lambda-grid or --lambda")


def cmd_sweep(args) -> int:
    grid = _grid_from_args(args)
    qs = args.q if args.q else [0.5, 0.4, 0.3]
    columns, failed = slv.sweep(ModelParams(omega0=args.omega0), qs, grid)
    return _emit_table(args, columns, failed, failed)


def cmd_figure1(args) -> int:
    grid = _parse_grid("0.005:0.495:99" if args.lambda_grid is None else args.lambda_grid)
    # NaN where ModelParams refuses lam; decided first, as log1p(-1.0) raises at lam = 0.5
    xi = np.array([_xi(lam) if lam < LAMBDA_STABILITY else math.nan for lam in grid])
    columns = {"lambda": np.array(grid), "xi": xi}
    batch = slv.solve_batch(np.array([[0.4], [0.3]]), grid)
    for xi_p, tag in zip(batch.xi_p, ("q04", "q03")):
        # a failed batch row holds NaN in xi_p and blanks only its own q's columns
        columns[f"xi_p_{tag}"] = xi_p
        columns[f"R_{tag}"] = xi_p / np.where(xi > 0.0, xi, math.nan)
    failed = np.reshape([error is not None for error in batch.errors], batch.xi_p.shape).any(axis=0)
    # xi is NaN only where ModelParams refused lam, and then both batch rows failed too
    return _emit_table(args, columns, failed)


def cmd_verify(args) -> int:
    lambdas = [args.coupling] if args.coupling is not None else [0.1, 0.3]
    qs = args.q or [0.5, 0.4]
    checks = orc.run_verification(omega0=args.omega0, lambdas=lambdas, qs=qs, tamper=args.tamper)
    _emit(_json_text(checks), args.out)
    return 0 if all(c["pass"] for c in checks) else 1


def cmd_report(args) -> int:
    qs = list(dict.fromkeys(args.q or [0.4, 0.3]))
    params = ModelParams(omega0=args.omega0)
    # one solve: each q's fit couplings, in the user's order, then the q = 1/2 recovery grid
    fit, lam_grid = slv._SCALING_COUPLINGS, [float(v) for v in np.linspace(0.02, 0.44, 22)]
    batch = slv.solve_batch(np.repeat([*qs, 0.5], [len(fit)] * len(qs) + [len(lam_grid)]),
                            [*fit * len(qs), *lam_grid])
    roots = batch.xi_p[:-len(lam_grid)].reshape(len(qs), len(fit))  # none lies near 1e-290
    curves = []
    for i, q in enumerate(qs):
        entry = {"q": q, "scaling_exponent": slv._fit_slope(roots[i]),
                 "scaling_exponent_expected": 2.0 / (1.0 + 2.0 * abs(q - 0.5))}
        if q != 0.5:
            entry["crossing_lambda"] = slv.find_crossing(params, q)
        curves.append(entry)

    r = slv._columns(params, np.array([[0.5]]), lam_grid, batch.xi_p[None, -len(lam_grid):],
                     batch.errors[-len(lam_grid):])[0]
    max_xi_gap, max_energy_gap, max_duality_gap = (max([0.0, *np.abs(gap).tolist()]) for gap in (
        r["xi_p"][0] - r["xi"], (r["e_p_total"][0] - r["e_ex_total"]) / r["e_ex_total"],
        r["linear_entropy_exact"] - r["dual_linear_entropy"]))

    mean_field = []
    for lam in (0.1, 0.36):
        point = ModelParams(omega0=args.omega0, coupling=lam)
        omega_hf, e_hf = hartree_fock(point)
        mean_field.append({
            "lambda": lam,
            "omega_hf": omega_hf,
            "e_hf": e_hf.total,
            "e_exact": exact_energy(point).total,
        })

    payload = {
        "omega0": args.omega0,
        "exact_recovery_q05": {
            "lambda_window": [lam_grid[0], lam_grid[-1]],
            "max_abs_xi_gap": max_xi_gap,
            "max_rel_energy_gap": max_energy_gap,
        },
        "ratio_curves": curves,
        "spectral_duality_max_gap": max_duality_gap,
        "mean_field": mean_field,
        "mean_field_note": _HF_NOTE,
    }
    _emit(_json_text(payload), args.out)
    return 0


_FLAGS = {
    "--omega0": dict(type=float, default=1.0, help="confinement frequency (default 1.0)"),
    "--lambda": dict(dest="coupling", type=float, help="interaction strength, must stay below 0.5"),
    "--lambda-grid": dict(dest="lambda_grid", metavar="START:STOP:COUNT[:log]",
                          help="coupling grid specification"),
    "--q": dict(action="append", type=float, help="kernel exponent; repeat for several"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format (default csv)"),
    "--tamper": dict(action="store_true", help=argparse.SUPPRESS),
    "--out": dict(help="output path (default stdout); written atomically"),
}

#: Subcommand -> (help, the flags its cmd_* reads besides --out).
_SUBCOMMANDS = {
    "solve": ("solve the stationarity condition at one (lambda, q)",
              ("--omega0", "--lambda", "--q", "--format")),
    "sweep": ("tabulate solutions over a coupling grid",
              ("--omega0", "--lambda", "--lambda-grid", "--q", "--format")),
    "figure1": ("ratio curves for q = 0.4 and 0.3 on the standard grid",
                ("--lambda-grid", "--format")),
    "verify": ("run the quadrature cross-checks", ("--omega0", "--lambda", "--q", "--tamper")),
    "report": ("crossings, scaling exponents and mean-field summary", ("--omega0", "--q")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonium",
        description="Variational occupation-number toolkit for the harmonically confined pair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        # no prefix matching: on figure1, --lambda would otherwise mean --lambda-grid
        command = sub.add_parser(name, help=help_text, allow_abbrev=False)
        command.set_defaults(command_parser=command)
        for flag in (*flags, "--out"):
            command.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args, extras = _build_parser().parse_known_args(argv)
    if extras:
        # reported by the subcommand, so that the usage line lists the flags it takes
        args.command_parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        # looked up at call time, so that a wrapped or patched cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, NoCrossingError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def run():
    raise SystemExit(main())
