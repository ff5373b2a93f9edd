"""Per-layer measurements taken by the traced run, apart from the workload spans.

- `import_seconds`: cumulative import times from `python -X importtime`.
- `function_p50s`: median call time of single functions on fixed inputs.
- `solver_counts`: work counts of the solver on a fixed probe, which repeat
  exactly from run to run.

None of these depend on the seed.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

from tracing import Tracer

IMPORT_RUNS = 5
_IMPORT_NAMES = {"harmonium": "import.harmonium_s", "scipy.special": "import.scipy_special_s",
                 "numpy": "import.numpy_s"}

#: (q, coupling) points of the solver probe: the decade walk, the scan, and the stability edge.
PROBE_QS = (0.35, 0.5, 0.65)
PROBE_COUPLINGS = (1e-9, 1e-6, 1e-3, 0.05, 0.2, 0.35, 0.45, 0.4948)
CROSSING_QS = (0.3, 0.4, 0.6, 0.7)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the first import of each watched module."""
    found: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        metric = _IMPORT_NAMES.get(name.strip())
        if metric is not None and metric not in found:
            found[metric] = int(cumulative) * 1e-6
    return found


def import_seconds(env: dict, cwd) -> dict[str, float]:
    """Median over IMPORT_RUNS fresh interpreters of `import harmonium` with -X importtime."""
    samples: dict[str, list[float]] = {metric: [] for metric in _IMPORT_NAMES.values()}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import harmonium"],
            env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120, check=True,
        )
        for metric, seconds in parse_importtime(proc.stderr).items():
            samples[metric].append(seconds)
    missing = [metric for metric, values in samples.items() if len(values) != IMPORT_RUNS]
    if missing:
        raise RuntimeError(f"-X importtime did not report {missing}")
    return {metric: statistics.median(values) for metric, values in samples.items()}


def _p50(fn, calls: int, samples: int) -> float:
    """Median over `samples` of the mean time of `calls` back-to-back calls."""
    fn()
    times = []
    for _ in range(samples):
        start = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - start) / calls)
    return statistics.median(times)


def function_p50s(hm) -> dict[str, float]:
    """Median call times of the functions each layer metric names, on fixed inputs."""
    import numpy as np

    slv, orc, spc = hm.solver, hm.oracle, hm.spectral
    params = hm.ModelParams(coupling=0.3)
    tiny = hm.ModelParams(coupling=1e-9)
    base = hm.ModelParams()
    spec = hm.KernelSpec.sum_one(0.4)
    freqs = hm.derive_frequencies(params)
    xi_p = slv.solve_xi_p(params, 0.4).xi_p
    if slv.solve_xi_p(tiny, 0.4).xi_p >= 1e-12:
        raise RuntimeError("the walk probe no longer falls below the scan window")
    scan = np.geomspace(1e-12, 1.0 - 1e-9, 2048)
    nodes = orc.gauss_hermite_rule(96, freqs.omega_s).nodes
    spectrum = spc.occupation_spectrum(freqs.xi)
    state = spc.parametric_state(freqs.omega_s, 0.4, xi_p)
    omega_p = freqs.omega_s * 1.3 / 0.7
    sweep_qs, sweep_grid = (0.4, 0.5, 0.6), list(np.linspace(0.01, 0.45, 32))
    rows = len(sweep_qs) * len(sweep_grid)

    return {
        "solver.solve_xi_p.p50_s": _p50(lambda: slv.solve_xi_p(params, 0.4), 5, 15),
        "solver.solve_xi_p_walk.p50_s": _p50(lambda: slv.solve_xi_p(tiny, 0.4), 5, 15),
        "solver.stationarity_lhs_scalar.p50_s": _p50(lambda: slv.stationarity_lhs(0.4, xi_p), 200, 15),
        "solver.stationarity_lhs_scan.p50_s": _p50(lambda: slv.stationarity_lhs(0.4, scan), 50, 15),
        "solver.sweep_per_row_s": _p50(lambda: slv.sweep(base, sweep_qs, sweep_grid), 1, 7) / rows,
        "solver.find_crossing.p50_s": _p50(lambda: slv.find_crossing(base, 0.4), 1, 9),
        "solver.scaling_exponent.p50_s": _p50(lambda: slv.scaling_exponent(base, 0.4), 1, 11),
        "model.derive_frequencies.p50_s": _p50(lambda: hm.derive_frequencies(params), 1000, 15),
        "mueller.energy_parametric.p50_s": _p50(lambda: hm.energy_parametric(params, spec, xi_p), 500, 15),
        "spectral.hermite_basis.p50_s": _p50(lambda: spc.hermite_basis(16, freqs.omega_bar, nodes), 100, 15),
        "spectral.one_matrix.p50_s": _p50(
            lambda: spc.one_matrix(spectrum, freqs.omega_bar, 1.0, nodes, nodes), 20, 15),
        "oracle.run_verification_per_coupling_s": _p50(
            lambda: orc.run_verification(lambdas=(0.3,), qs=(0.5, 0.4)), 1, 7),
        "oracle.brute_force_minimize.p50_s": _p50(lambda: orc.brute_force_minimize(params, spec), 1, 9),
        "oracle.hamiltonian_expectation_numeric.p50_s": _p50(
            lambda: orc.hamiltonian_expectation_numeric(params, check=False), 5, 15),
        "oracle.kernel_interaction_numeric.p50_s": _p50(
            lambda: orc.kernel_interaction_numeric(params, spec, state, check=False), 1, 11),
        "oracle.one_matrix_numeric.p50_s": _p50(
            lambda: orc.one_matrix_numeric(params, 0.5, -0.3, check=False), 20, 15),
        "oracle.spectral_kinetic_sum.p50_s": _p50(lambda: orc.spectral_kinetic_sum(0.3, omega_p), 5, 15),
        "oracle.reference_basis.p50_s": _p50(lambda: orc.reference_basis(28, omega_p, nodes), 10, 15),
        "oracle.gauss_hermite_rule.p50_s": _p50(lambda: orc.gauss_hermite_rule(96, freqs.omega_s), 200, 15),
    }


def solver_counts(hm) -> dict[str, float]:
    """Calls and iterations per solve on the fixed probe, and solves per crossing."""
    slv = hm.solver
    solves = Tracer()
    solves.install(hm)
    try:
        iterations = [
            slv.solve_xi_p(hm.ModelParams(coupling=lam), q).iterations
            for q in PROBE_QS for lam in PROBE_COUPLINGS
        ]
    finally:
        solves.uninstall()
    crossings = Tracer()
    crossings.install(hm)
    try:
        for q in CROSSING_QS:
            slv.find_crossing(hm.ModelParams(), q)
    finally:
        crossings.uninstall()
    n_solves = solves.count("solver.solve_xi_p")
    return {
        "solver.lhs_calls_per_solve": solves.count("solver.stationarity_lhs") / n_solves,
        "solver.bisection_iterations_per_solve": sum(iterations) / len(iterations),
        "solver.solves_per_crossing": (crossings.count("solver.solve_xi_p", parent="solver.find_crossing")
                                       / crossings.count("solver.find_crossing")),
    }
