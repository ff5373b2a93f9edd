"""The package namespace is the union of the layer modules' exports."""

import subprocess
import sys

import harmonium
from harmonium import entropy, errors, model, mueller, oracle, solver, spectral

LAYERS = (entropy, errors, model, mueller, oracle, solver, spectral)

#: The public names, frozen: a change to this set is a change to the API.
EXPORTS = frozenset({
    "AccuracyWarning", "BracketError", "DomainError", "NoCrossingError",
    "LAMBDA_MAX", "LAMBDA_STABILITY", "DerivedFrequencies", "EnergyBreakdown",
    "ModelParams", "density", "derive_frequencies", "effective_potential",
    "exact_energy", "hartree_fock", "wavefunction",
    "TRUNCATION_MIN", "TRUNCATION_MAX", "OccupationSpectrum", "ParametricState",
    "density_from_spectrum", "hermite_basis", "hermite_orbital",
    "occupation_spectrum", "omega_p_from_constraint", "one_matrix",
    "parametric_state", "schmidt_state", "truncation_order",
    "XI_P_MAX", "KernelFamily", "KernelSpec", "energy_parametric",
    "interaction_bracket", "interaction_bracket_equal_powers", "kernel_eval",
    "kernel_normalization", "kinetic_parametric",
    "Q_MAX", "Q_MIN", "BatchSolution", "StationaritySolution", "SweepRecord",
    "EntropyComparison", "entropy_comparison", "find_crossing",
    "scaling_exponent", "solve_batch", "solve_xi_p", "stationarity_lhs",
    "stationarity_rhs", "sweep",
    "EntropyReport", "dual_coupling", "entropy_report", "linear_entropy",
    "purity", "quasiparticle_weight",
    "ORACLE_LAMBDA_MAX", "QuadratureRule", "brute_force_minimize",
    "gauss_hermite_rule", "hamiltonian_expectation_numeric",
    "kernel_integral_numeric", "kernel_interaction_numeric",
    "one_matrix_numeric", "run_verification", "spectral_kinetic_sum",
    "__version__",
})


def test_exports_are_unique():
    assert len(harmonium.__all__) == len(set(harmonium.__all__))


def test_exports_are_frozen():
    assert set(harmonium.__all__) == EXPORTS


def test_every_export_is_the_layer_object():
    owners = {}
    for layer in LAYERS:
        for name in layer.__all__:
            assert name not in owners, (name, owners.get(name), layer.__name__)
            owners[name] = layer
            assert getattr(harmonium, name) is getattr(layer, name)
    assert set(owners) | {"__version__"} == set(harmonium.__all__)


def test_import_loads_every_layer():
    # a fresh interpreter: the benchmark's tracer and import probe rely on this
    layers = [layer.__name__ for layer in LAYERS]
    code = (
        "import sys, harmonium; "
        f"missing = [m for m in {layers + ['scipy.special']!r} if m not in sys.modules]; "
        "print(missing)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
