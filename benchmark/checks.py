"""Output checks for each workload, against `refmath` and the method's own properties.

Each checker takes the op and the raw text the program wrote, plus its exit
code, and returns a list of problems; an empty list means the output is
correct.  Tolerances:

- sweep: every in-domain row has |lhs - rhs| <= 1e-13 max(1, rhs) and its
  xi_p within 1e-12 relative of the true root; xi is within 1e-10 of the
  closed form; rows at q = 1/2 give xi_p = xi and E_p = E_ex within 1e-10;
  e_ex_total equals the closed form; rows come q-major, both ascending, and
  rows past 0.4999 carry an error and NaN values.
- report: the crossing lies within 1e-8 of the reduction in xi; the scaling
  exponent matches the independent fit within 1e-10; the q = 1/2 recovery
  gaps are at most 1e-10; the mean field is omega_hf = E_hf = sqrt(1 - lam).
- verify: every check passes, each coupling has 10 + 4 per q checks, and the
  closed-form references match this module's own values.
"""

from __future__ import annotations

import csv
import io
import json
import math

import refmath
from workloads import Op

SWEEP_HEADER = [
    "q", "lambda", "xi", "xi_p", "ratio", "e_p_total", "e_ex_total",
    "purity", "linear_entropy", "linear_entropy_exact",
    "dual_lambda", "dual_linear_entropy", "error",
]

RESIDUAL_TOL = 1e-13
ROOT_REL_TOL = 1e-12
RECOVERY_TOL = 1e-10
CROSSING_TOL = 1e-8
EXPONENT_TOL = 1e-10
CLOSED_FORM_REL_TOL = 1e-12


def _close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * max(abs(reference), 1e-300)


def _grid(spec: str) -> list[float]:
    parts = spec.split(":")
    start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    if len(parts) == 4:
        ratio = stop / start
        return [start * ratio ** (i / (count - 1)) for i in range(count)]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def check_sweep(op: Op, text: str, exit_code: int) -> list[str]:
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return problems + [f"bad header {rows[:1]}"]
    rows = rows[1:]
    grid = _grid(op.grid)
    expected = [(q, lam) for q in sorted(op.qs) for lam in grid]
    if len(rows) != len(expected):
        return problems + [f"{len(rows)} rows, expected {len(expected)}"]
    for i, (row, (q, lam)) in enumerate(zip(rows, expected)):
        where = f"row {i + 1} (q={q}, lambda={lam:.6g})"
        values = dict(zip(SWEEP_HEADER, row))
        error = values.pop("error")
        try:
            num = {key: float(cell) for key, cell in values.items()}
        except ValueError as exc:
            problems.append(f"{where}: unparseable value ({exc})")
            continue
        if num["q"] != q or not _close(num["lambda"], lam, 1e-12):
            problems.append(f"{where}: out of order, got q={num['q']} lambda={num['lambda']}")
            continue
        if lam > refmath.LAMBDA_MAX:
            if not error or not all(math.isnan(v) for k, v in num.items() if k not in ("q", "lambda")):
                problems.append(f"{where}: past {refmath.LAMBDA_MAX} but no error row")
            continue
        if error:
            problems.append(f"{where}: unexpected error {error!r}")
            continue
        lam = num["lambda"]
        xi_p = num["xi_p"]
        target = refmath.rhs(lam)
        residual = abs(refmath.lhs(q, xi_p) - target)
        if not residual <= RESIDUAL_TOL * max(1.0, target):
            problems.append(f"{where}: residual {residual:.3e} above {RESIDUAL_TOL} max(1, rhs)")
        if not refmath.root_is_bracketed(q, lam, xi_p, ROOT_REL_TOL):
            problems.append(f"{where}: xi_p {xi_p!r} not within {ROOT_REL_TOL} of the root")
        # Absolute, like the recovery bound: the program's quarter-power xi
        # loses relative digits at small couplings (see CHANGES.md).
        xi = refmath.xi(lam)
        if not abs(num["xi"] - xi) <= RECOVERY_TOL:
            problems.append(f"{where}: xi {num['xi']!r} differs from the closed form {xi!r}")
        e_ex = refmath.exact_energy(lam)
        if not _close(num["e_ex_total"], e_ex, CLOSED_FORM_REL_TOL):
            problems.append(f"{where}: e_ex_total {num['e_ex_total']!r} differs from {e_ex!r}")
        if q == 0.5:
            if not abs(xi_p - xi) <= RECOVERY_TOL:
                problems.append(f"{where}: xi_p misses the exact xi at q = 1/2")
            if not abs(num["e_p_total"] - e_ex) <= RECOVERY_TOL:
                problems.append(f"{where}: E_p misses E_ex at q = 1/2")
    return problems


def check_report(op: Op, text: str, exit_code: int) -> list[str]:
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    try:
        payload = json.loads(text)
        (curve,) = payload["ratio_curves"]
        recovery = payload["exact_recovery_q05"]
        mean_field = payload["mean_field"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"malformed report ({exc!r})"]
    (q,) = op.qs
    if curve.get("q") != q:
        problems.append(f"curve q {curve.get('q')!r}, expected {q}")
    crossing = refmath.crossing(q)
    got = curve.get("crossing_lambda")
    if not isinstance(got, float) or abs(got - crossing) > CROSSING_TOL:
        problems.append(f"crossing {got!r} differs from the reduction {crossing!r} by more than {CROSSING_TOL}")
    fit = refmath.scaling_fit(q)
    got = curve.get("scaling_exponent")
    if not isinstance(got, float) or abs(got - fit) > EXPONENT_TOL:
        problems.append(f"scaling exponent {got!r} differs from the independent fit {fit!r}")
    expected = 2.0 / (1.0 + 2.0 * abs(q - 0.5))
    if curve.get("scaling_exponent_expected") != expected:
        problems.append(f"scaling_exponent_expected {curve.get('scaling_exponent_expected')!r} != {expected!r}")
    for key in ("max_abs_xi_gap", "max_rel_energy_gap"):
        gap = recovery.get(key)
        if not isinstance(gap, float) or not 0.0 <= gap <= RECOVERY_TOL:
            problems.append(f"{key} {gap!r} above {RECOVERY_TOL}")
    if len(mean_field) != 2:
        problems.append(f"{len(mean_field)} mean-field entries, expected 2")
    for entry in mean_field:
        lam = entry["lambda"]
        omega_hf = math.sqrt(1.0 - lam)
        if not _close(entry["omega_hf"], omega_hf, CLOSED_FORM_REL_TOL):
            problems.append(f"omega_hf at lambda={lam}: {entry['omega_hf']!r} != {omega_hf!r}")
        if not _close(entry["e_hf"], omega_hf, CLOSED_FORM_REL_TOL):
            problems.append(f"e_hf at lambda={lam}: {entry['e_hf']!r} != {omega_hf!r}")
        if not _close(entry["e_exact"], refmath.exact_energy(lam), CLOSED_FORM_REL_TOL):
            problems.append(f"e_exact at lambda={lam}: {entry['e_exact']!r}")
    return problems


def _verify_references(lam: float, qs) -> dict[str, float]:
    """The reference each scoreboard check must carry, computed here.

    kernel_mass is 2 minus the kernel normalization, which is exactly 1 for
    the sum_one closure; scan_vs_root's reference is the stationary root.
    """
    tag = f"lam={lam:g}"
    refs = {
        f"psi_norm[{tag}]": 1.0,
        f"density_norm[{tag}]": 1.0,
        f"one_matrix_trace[{tag}]": 1.0,
        f"hamiltonian_total[{tag}]": refmath.exact_energy(lam),
    }
    for xi_p in (0.0, 0.1, 0.3):
        refs[f"kinetic_sum[{tag},xi_p={xi_p:g}]"] = refmath.kinetic(lam, xi_p)
    for q in qs:
        qtag = f"{tag},q={q:g}"
        xi_p = refmath.root(q, lam)
        refs[f"kernel_interaction[{qtag}]"] = refmath.interaction(lam, q, xi_p)
        refs[f"kernel_mass[{qtag}]"] = 1.0
        refs[f"scan_vs_root[{qtag}]"] = xi_p
    return refs


def check_verify(op: Op, text: str, exit_code: int) -> list[str]:
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    try:
        checks = json.loads(text)
        by_name = {c["check"]: c for c in checks}
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"malformed scoreboard ({exc!r})"]
    if len(checks) != op.units or len(by_name) != op.units:
        problems.append(f"{len(checks)} checks, expected {op.units}")
    for c in checks:
        if c.get("pass") is not True:
            problems.append(f"check {c.get('check')} failed: error {c.get('error')!r} > {c.get('tolerance')!r}")
    for name, reference in _verify_references(op.coupling, op.qs).items():
        got = by_name.get(name, {}).get("reference")
        if not isinstance(got, float) or not _close(got, reference, CLOSED_FORM_REL_TOL):
            problems.append(f"reference of {name} is {got!r}, expected {reference!r}")
    return problems


#: Checker of each subcommand's output.
CHECKERS = {"sweep": check_sweep, "report": check_report, "verify": check_verify}

