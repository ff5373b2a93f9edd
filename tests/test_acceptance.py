"""Release gate: ten end-to-end checks with stated tolerances and budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one [PASS]/[FAIL]
line per check; each line carries the measured figure and its bound.
Every check here is redundant with the unit suites on purpose: this file is
the single place that must stay green for a release.
"""

import json
import math
import os
import tempfile
import time

import numpy as np

from harmonium import (
    KernelSpec,
    ModelParams,
    brute_force_minimize,
    derive_frequencies,
    energy_parametric,
    exact_energy,
    find_crossing,
    hartree_fock,
    linear_entropy,
    run_verification,
    scaling_exponent,
    solve_batch,
    solve_xi_p,
)
from harmonium.cli import main as cli_main

BASE = ModelParams()


def _report(ok: bool, label: str, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_stationarity_residuals():
    """Root residuals stay below 1e-13 * max(1, rhs) across the (q, coupling) box."""
    start = time.perf_counter()
    worst = 0.0
    for q in (0.3, 0.4, 0.5, 0.6, 0.7):
        for lam in (1e-4, 1e-3, 0.01, 0.1, 0.2, 0.3, 0.4, 0.45):
            sol = solve_xi_p(ModelParams(coupling=lam), q)
            worst = max(worst, sol.residual / max(1.0, sol.rhs))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed < 1.0
    _report(ok, "stationarity-residuals",
            f"worst scaled residual {worst:.2e} (bound 1e-13), {elapsed:.2f}s (budget 1s)")


def test_energy_identity_random_draws():
    """Closed-form energy terms sum to half the sum of the mode frequencies."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260825)
    worst = 0.0
    for _ in range(1000):
        params = ModelParams(
            omega0=float(rng.uniform(0.2, 5.0)),
            coupling=float(rng.uniform(0.0, 0.4999)),
        )
        f = derive_frequencies(params)
        total = exact_energy(params).total
        target = 0.5 * (f.omega1 + f.omega2)
        worst = max(worst, abs(total - target) / target)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-13 and elapsed < 1.0
    _report(ok, "energy-identity",
            f"worst relative gap {worst:.2e} over 1000 seeded draws (bound 1e-13), "
            f"{elapsed:.2f}s (budget 1s)")


def test_quadrature_verification():
    """Every quadrature cross-check passes at couplings 0.1 and 0.3."""
    start = time.perf_counter()
    checks = run_verification(lambdas=(0.1, 0.3), qs=(0.5, 0.4))
    elapsed = time.perf_counter() - start
    failed = [c["check"] for c in checks if not c["pass"]]
    ok = not failed and elapsed < 60.0
    _report(ok, "quadrature-verification",
            f"{len(checks) - len(failed)}/{len(checks)} checks pass"
            + (f", failing: {failed}" if failed else "")
            + f", {elapsed:.2f}s (budget 60s)")


def test_exact_recovery_at_square_root_exponent():
    """At q = 0.5 the variational minimum reproduces the exact state and energy."""
    start = time.perf_counter()
    worst_xi = 0.0
    worst_e = 0.0
    for lam in np.linspace(0.01, 0.45, 45):
        params = ModelParams(coupling=float(lam))
        f = derive_frequencies(params)
        sol = solve_xi_p(params, 0.5)
        e_p = energy_parametric(params, KernelSpec.sum_one(0.5), sol.xi_p).total
        e_ex = exact_energy(params).total
        worst_xi = max(worst_xi, abs(sol.xi_p - f.xi))
        worst_e = max(worst_e, abs(e_p - e_ex) / e_ex)
    elapsed = time.perf_counter() - start
    ok = worst_xi <= 1e-10 and worst_e <= 1e-10 and elapsed < 5.0
    _report(ok, "exact-recovery",
            f"max |xi_p - xi| {worst_xi:.2e}, max relative energy gap {worst_e:.2e} "
            f"(bounds 1e-10), {elapsed:.2f}s (budget 5s)")


def test_variational_search_peaks_at_the_exact_energy():
    """The stationary energy E*(q) over q in [0.3, 0.7] peaks at q = 1/2, where it
    is the exact energy, with curvature c(coupling) = coupling omega0^2/(2 omega_s)
    (ln xi)^2 sqrt(xi)/(1 + xi): E*(q) ~ E_ex - c (q - 1/2)^2."""
    start = time.perf_counter()
    grid = [round(0.3 + 0.01 * k, 2) for k in range(41)]
    steps = (2e-3, 1e-3)
    qs = grid + [0.5 + h for h in steps] + [0.5 - h for h in steps]
    worst_peak = worst_curvature = 0.0
    details = []
    ok = True
    for lam in (0.01, 0.1, 0.3, 0.45):
        params = ModelParams(coupling=lam)
        f = derive_frequencies(params)
        roots = solve_batch(np.array(qs)[:, None], [lam]).xi_p.ravel().tolist()
        e_star = {q: energy_parametric(params, KernelSpec.sum_one(q), x).total
                  for q, x in zip(qs, roots)}
        e_ex = exact_energy(params).total
        worst_peak = max(worst_peak, abs(e_star[0.5] - e_ex) / e_ex)
        below = max(e_star[q] - e_ex for q in grid if q != 0.5)
        # -(E(1/2 + h) + E(1/2 - h) - 2 E(1/2)) / (2 h^2) = c + O(h^2), Richardson-extrapolated
        second = [(e_star[0.5 + h] + e_star[0.5 - h] - 2.0 * e_star[0.5]) / (2.0 * h * h)
                  for h in steps]
        curvature = -(4.0 * second[1] - second[0]) / 3.0
        c = lam * params.omega0 ** 2 / (2.0 * f.omega_s) * math.log(f.xi) ** 2 \
            * math.sqrt(f.xi) / (1.0 + f.xi)
        worst_curvature = max(worst_curvature, abs(curvature - c) / c)
        ok = ok and below < 0.0
        details.append(f"lambda={lam}: max E*(q != 1/2) - E_ex {below:.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and worst_peak <= 1e-12 and worst_curvature <= 1e-6 and elapsed < 5.0
    _report(ok, "variational-search",
            "; ".join(details) + f" (bound < 0); E*(1/2) within {worst_peak:.1e} of E_ex "
            f"(bound 1e-12); curvature within {worst_curvature:.1e} of c (bound 1e-6), "
            f"{elapsed:.2f}s (budget 5s)")


def test_ratio_curves_cross_once():
    """xi_p/xi crosses one exactly once per q, at the same coupling the entropy
    ordering flips."""
    start = time.perf_counter()
    grid = np.linspace(0.005, 0.495, 99)
    details = []
    ok = True
    for q in (0.4, 0.3):
        ratios = []
        for lam in grid:
            params = ModelParams(coupling=float(lam))
            f = derive_frequencies(params)
            ratios.append(solve_xi_p(params, q).xi_p / f.xi)
        ratios = np.asarray(ratios)
        signs = np.sign(ratios - 1.0)
        flips = int(np.count_nonzero(np.diff(signs)))
        endpoints_ok = ratios[0] > 1.0 and ratios[-1] < 1.0
        lam_ratio = find_crossing(BASE, q)
        # independent route: bisect on the sign of the linear-entropy difference
        lo, hi = 0.05, 0.45
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            params = ModelParams(coupling=mid)
            l_par = linear_entropy(solve_xi_p(params, q).xi_p)
            if l_par - linear_entropy(derive_frequencies(params).xi) >= 0.0:
                lo = mid
            else:
                hi = mid
        lam_entropy = 0.5 * (lo + hi)
        agree = abs(lam_ratio - lam_entropy) <= 1e-6
        ok = ok and endpoints_ok and flips == 1 and agree
        details.append(
            f"q={q}: R(0.005)={ratios[0]:.3f}, R(0.495)={ratios[-1]:.3f}, "
            f"{flips} crossing(s), ratio-root {lam_ratio:.6f} vs entropy-flip "
            f"{lam_entropy:.6f}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(ok, "ratio-crossings", "; ".join(details) + f", {elapsed:.2f}s (budget 10s)")


def test_scan_agrees_with_root():
    """Brute-force energy scans land on the stationarity roots."""
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.1, 0.3):
        for q in (0.5, 0.4):
            params = ModelParams(coupling=lam)
            xi_scan, _ = brute_force_minimize(params, KernelSpec.sum_one(q))
            xi_root = solve_xi_p(params, q).xi_p
            worst = max(worst, abs(xi_scan - xi_root))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _report(ok, "scan-vs-root",
            f"max |xi_scan - xi_root| {worst:.2e} (bound 1e-6), {elapsed:.2f}s (budget 10s)")


def test_scaling_exponents():
    """Small-coupling root scaling matches 2/(1 + 2|q - 1/2|) within 2 percent."""
    start = time.perf_counter()
    details = []
    ok = True
    for q, expect in ((0.5, 2.0), (0.4, 5.0 / 3.0), (0.3, 10.0 / 7.0)):
        slope = scaling_exponent(BASE, q)
        rel = abs(slope - expect) / expect
        ok = ok and rel < 0.02
        details.append(f"q={q}: {slope:.4f} vs {expect:.4f} ({100 * rel:.2f}%)")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(ok, "scaling-exponents", "; ".join(details) + f", {elapsed:.2f}s (budget 1s)")


def test_mean_field_frequency():
    """The self-consistent frequency matches omega0*sqrt(1 - coupling), and the
    report subcommand documents the competing closed forms for its energy."""
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.1, 0.36):
        omega_hf, _ = hartree_fock(ModelParams(coupling=lam))
        worst = max(worst, abs(omega_hf - math.sqrt(1.0 - lam)))
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        code = cli_main(["report", "--q", "0.4", "--out", path])
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    finally:
        os.remove(path)
    note = payload.get("mean_field_note", "")
    documented = (
        code == 0
        and "omega0*sqrt(1 - lambda)" in note
        and "2*omega0*sqrt(1 - lambda)" in note
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and documented and elapsed < 1.0
    _report(ok, "mean-field-frequency",
            f"max |omega_hf - omega0*sqrt(1-lambda)| {worst:.2e} (bound 1e-8), "
            f"note documents both closed forms: {documented}, "
            f"{elapsed:.2f}s (budget 1s)")


def test_sweep_deterministic_run_to_run():
    """Two runs of the same sweep write byte-identical files."""
    start = time.perf_counter()
    outputs = []
    for _ in range(2):
        fd, path = tempfile.mkstemp(suffix=".csv")
        os.close(fd)
        try:
            code = cli_main([
                "sweep", "--lambda-grid", "0.005:0.495:99",
                "--q", "0.5", "--q", "0.4", "--q", "0.3", "--out", path,
            ])
            assert code == 0
            with open(path, "rb") as fh:
                outputs.append(fh.read())
        finally:
            os.remove(path)
    elapsed = time.perf_counter() - start
    identical = outputs[0] == outputs[1]
    rows = outputs[0].count(b"\n") - 1
    ok = identical and rows == 297
    _report(ok, "sweep-determinism",
            f"{rows} rows, byte-identical across two runs: {identical}, "
            f"{elapsed:.2f}s")
