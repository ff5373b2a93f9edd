"""Command-line front end.

Subcommands: solve (one stationarity problem), sweep (grids of them),
figure1 (the two ratio curves on the standard grid), verify (quadrature
cross-checks as JSON), report (crossings, scaling exponents, mean-field
summary).  Flags can also be supplied through a key=value config file;
explicit flags win.  Outputs are CSV (comma separated, header row, LF,
UTF-8, 17 significant digits) or JSON, written atomically when --out is
given.  Each of sweep, figure1 and report solves one batch of couplings
per exponent.

Exit codes: 0 success, 1 failed checks or too many failed rows, 2 domain
error or bad usage, 3 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import entropy as ent
from . import oracle as orc
from . import solver as slv
from .errors import BracketError, DomainError, NoCrossingError
from .model import ModelParams, derive_frequencies, exact_energy, hartree_fock
from .mueller import KernelSpec, energy_parametric

__all__ = ["main", "run"]

_DEFAULTS = {
    "omega0": 1.0,
    "tol_root": 1e-15,
    "tol_trunc": 1e-14,
    "format": "csv",
}

_FIGURE1_HEADER = ["lambda", "xi", "xi_p_q04", "R_q04", "xi_p_q03", "R_q03"]

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
    if count < 2:
        raise DomainError(f"grids need at least 2 points, got {count}")
    if len(parts) == 4:
        if start <= 0.0 or stop <= 0.0:
            raise DomainError("log grids need positive endpoints")
        return [float(v) for v in np.geomspace(start, stop, count)]
    return [float(v) for v in np.linspace(start, stop, count)]


def _read_config(path: str) -> dict:
    """key=value file; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from None
    return values


def _merge_config(args: argparse.Namespace):
    """Fill unset flags from the config file, then apply hard defaults."""
    cfg = _read_config(args.config) if args.config else {}
    mapping = {
        "omega0": ("omega0", float),
        "lambda": ("coupling", float),
        "lambda-grid": ("lambda_grid", str),
        "tol-root": ("tol_root", float),
        "tol-trunc": ("tol_trunc", float),
        "format": ("format", str),
        "out": ("out", str),
    }
    for key, (attr, conv) in mapping.items():
        if key in cfg and getattr(args, attr, None) is None:
            try:
                setattr(args, attr, conv(cfg[key]))
            except ValueError:
                raise DomainError(f"config value for {key} is not a {conv.__name__}: {cfg[key]!r}")
    if "q" in cfg and getattr(args, "q", None) is None:
        try:
            args.q = [float(tok) for tok in cfg["q"].replace(",", " ").split()]
        except ValueError:
            raise DomainError(f"config value for q is not a float list: {cfg['q']!r}")
    unknown = set(cfg) - set(mapping) - {"q"}
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    if args.omega0 is None:
        args.omega0 = _DEFAULTS["omega0"]
    if args.tol_root is None:
        args.tol_root = _DEFAULTS["tol_root"]
    if args.tol_trunc is None:
        args.tol_trunc = _DEFAULTS["tol_trunc"]
    if args.format is None:
        args.format = _DEFAULTS["format"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.17g}"
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
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
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".harmonium-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _single_q(args, default: float = 0.5) -> float:
    if args.q is None:
        return default
    if len(args.q) != 1:
        raise DomainError("this subcommand takes exactly one --q")
    return float(args.q[0])


def _require_coupling(args) -> float:
    if args.coupling is None:
        raise DomainError("a coupling is required; pass --lambda")
    return float(args.coupling)


def cmd_solve(args) -> int:
    lam = _require_coupling(args)
    q = _single_q(args)
    params = ModelParams(omega0=args.omega0, coupling=lam)
    f = derive_frequencies(params)
    sol = slv.solve_xi_p(params, q, tol=args.tol_root)
    e_p = energy_parametric(params, KernelSpec.sum_one(q), sol.xi_p)
    e_ex = exact_energy(params)
    report = ent.entropy_report(sol.xi_p)
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
        "purity": report.purity,
        "linear_entropy": report.linear_entropy,
        "quasiparticle_weight": report.quasiparticle_weight,
    }
    if args.format == "json":
        _emit(_json_text(record), args.out)
    else:
        _emit(_csv_text(list(record), [list(record.values())]), args.out)
    return 0


_SWEEP_HEADER = [
    "q", "lambda", "xi", "xi_p", "ratio", "e_p_total", "e_ex_total",
    "purity", "linear_entropy", "linear_entropy_exact",
    "dual_lambda", "dual_linear_entropy", "error",
]


def _sweep_row(rec: slv.SweepRecord) -> list:
    return [
        rec.q, rec.coupling, rec.xi, rec.xi_p, rec.ratio, rec.e_p_total,
        rec.e_ex_total, rec.purity, rec.linear_entropy, rec.linear_entropy_exact,
        rec.dual_coupling, rec.dual_linear_entropy, rec.error,
    ]


def _grid_from_args(args) -> list[float]:
    if args.lambda_grid is not None:
        return _parse_grid(args.lambda_grid)
    if args.coupling is not None:
        return [float(args.coupling)]
    raise DomainError("a coupling grid is required; pass --lambda-grid or --lambda")


def cmd_sweep(args) -> int:
    grid = _grid_from_args(args)
    qs = args.q if args.q else [0.5, 0.4, 0.3]
    params = ModelParams(omega0=args.omega0)
    records = slv.sweep(params, qs, grid, root_tol=args.tol_root)
    if args.format == "json":
        payload = [dict(zip(_SWEEP_HEADER, _sweep_row(r))) for r in records]
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv_text(_SWEEP_HEADER, [_sweep_row(r) for r in records]), args.out)
    failed = sum(1 for r in records if r.error is not None)
    return 1 if failed > 0.1 * len(records) else 0


def cmd_figure1(args) -> int:
    if args.lambda_grid is not None:
        grid = _parse_grid(args.lambda_grid)
    else:
        grid = [float(v) for v in np.linspace(0.005, 0.495, 99)]
    params = ModelParams(omega0=args.omega0)
    batches = [(2, slv.solve_batch(0.4, grid, params.omega0, args.tol_root)),
               (4, slv.solve_batch(0.3, grid, params.omega0, args.tol_root))]
    rows = []
    failed = 0
    nan = float("nan")
    for i, lam in enumerate(grid):
        row = [lam, nan, nan, nan, nan, nan]
        try:
            xi = derive_frequencies(ModelParams(omega0=params.omega0, coupling=lam)).xi
            row[1] = xi
            for slot, batch in batches:
                xi_p = batch.solution(i).xi_p
                row[slot] = xi_p
                row[slot + 1] = xi_p / xi if xi > 0.0 else nan
        except (DomainError, BracketError):
            failed += 1
        rows.append(row)
    if args.format == "json":
        payload = [dict(zip(_FIGURE1_HEADER, row)) for row in rows]
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv_text(_FIGURE1_HEADER, rows), args.out)
    return 1 if failed > 0.1 * len(rows) else 0


def cmd_verify(args) -> int:
    lambdas = [float(args.coupling)] if args.coupling is not None else [0.1, 0.3]
    qs = [float(q) for q in args.q] if args.q else [0.5, 0.4]
    checks = orc.run_verification(
        omega0=args.omega0, lambdas=lambdas, qs=qs,
        trunc_tol=args.tol_trunc, tamper=args.tamper,
    )
    _emit(_json_text(checks), args.out)
    return 0 if all(c["pass"] for c in checks) else 1


def cmd_report(args) -> int:
    qs = [float(q) for q in args.q] if args.q else [0.4, 0.3]
    params = ModelParams(omega0=args.omega0)
    curves = []
    for q in qs:
        entry = {"q": q, "scaling_exponent": slv.scaling_exponent(params, q, root_tol=args.tol_root)}
        delta = abs(q - 0.5)
        entry["scaling_exponent_expected"] = 2.0 / (1.0 + 2.0 * delta)
        if q != 0.5:
            entry["crossing_lambda"] = slv.find_crossing(params, q, root_tol=args.tol_root)
        curves.append(entry)

    lam_grid = [float(v) for v in np.linspace(0.02, 0.44, 22)]
    recovery = slv.solve_batch(0.5, lam_grid, args.omega0, args.tol_root)
    max_xi_gap = 0.0
    max_energy_gap = 0.0
    max_duality_gap = 0.0
    for i, lam in enumerate(lam_grid):
        point = ModelParams(omega0=args.omega0, coupling=lam)
        f = derive_frequencies(point)
        sol = recovery.solution(i)
        e_p = energy_parametric(point, KernelSpec.sum_one(0.5), sol.xi_p)
        e_ex = exact_energy(point)
        max_xi_gap = max(max_xi_gap, abs(sol.xi_p - f.xi))
        max_energy_gap = max(max_energy_gap, abs(e_p.total - e_ex.total) / e_ex.total)
        twin = ModelParams(omega0=args.omega0, coupling=ent.dual_coupling(lam))
        max_duality_gap = max(
            max_duality_gap,
            abs(ent.linear_entropy(f.xi) - ent.linear_entropy(derive_frequencies(twin).xi)),
        )

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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--omega0", type=float, default=None, help="confinement frequency (default 1.0)")
    common.add_argument("--lambda", dest="coupling", type=float, default=None,
                        help="interaction strength, must stay below 0.5")
    common.add_argument("--lambda-grid", dest="lambda_grid", default=None,
                        metavar="START:STOP:COUNT[:log]", help="coupling grid specification")
    common.add_argument("--q", action="append", type=float, default=None,
                        help="kernel exponent; repeat for several")
    common.add_argument("--tol-root", dest="tol_root", type=float, default=None,
                        help="root-finder relative tolerance (default 1e-15)")
    common.add_argument("--tol-trunc", dest="tol_trunc", type=float, default=None,
                        help="spectral truncation tolerance (default 1e-14)")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv; verify and report always emit JSON)")
    common.add_argument("--out", default=None, help="output path (default stdout); written atomically")
    common.add_argument("--config", default=None, help="key=value file supplying defaults for the flags above")

    parser = argparse.ArgumentParser(
        prog="harmonium",
        description="Variational occupation-number toolkit for the harmonically confined pair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[common],
                   help="solve the stationarity condition at one (lambda, q)").set_defaults(func=cmd_solve)
    sub.add_parser("sweep", parents=[common],
                   help="tabulate solutions over a coupling grid").set_defaults(func=cmd_sweep)
    sub.add_parser("figure1", parents=[common],
                   help="ratio curves for q = 0.4 and 0.3 on the standard grid").set_defaults(func=cmd_figure1)
    verify = sub.add_parser("verify", parents=[common], help="run the quadrature cross-checks")
    verify.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(func=cmd_verify)
    sub.add_parser("report", parents=[common],
                   help="crossings, scaling exponents and mean-field summary").set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, NoCrossingError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


def run():
    raise SystemExit(main())
