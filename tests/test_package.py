"""The package namespace is the union of the layer modules' exports."""

import ast
import subprocess
import sys
from pathlib import Path

import harmonium
from harmonium import entropy, errors, model, mueller, oracle, solver, spectral

LAYERS = (entropy, errors, model, mueller, oracle, solver, spectral)
ROOT = Path(__file__).parents[1]

#: The public names, frozen: a change to this set is a change to the API.
EXPORTS = frozenset({
    "AccuracyWarning", "BracketError", "DomainError", "NoCrossingError",
    "LAMBDA_MAX", "LAMBDA_STABILITY", "DerivedFrequencies", "EnergyBreakdown",
    "ModelParams", "density", "derive_frequencies", "effective_potential",
    "exact_energy", "hartree_fock", "wavefunction",
    "TRUNCATION_MIN", "TRUNCATION_MAX", "OccupationSpectrum", "ParametricState",
    "hermite_basis", "occupation_spectrum", "one_matrix", "parametric_state",
    "truncation_order",
    "XI_P_MAX", "KernelSpec", "energy_parametric", "interaction_bracket",
    "kinetic_parametric",
    "Q_MAX", "Q_MIN", "BatchSolution", "StationaritySolution", "SweepRecord",
    "find_crossing",
    "scaling_exponent", "solve_batch", "solve_xi_p", "stationarity_lhs",
    "stationarity_rhs", "sweep",
    "dual_coupling", "linear_entropy", "purity", "quasiparticle_weight",
    "ORACLE_LAMBDA_MAX", "QuadratureRule", "brute_force_minimize",
    "gauss_hermite_rule", "hamiltonian_expectation_numeric",
    "kernel_interaction_numeric",
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


def _reached_names() -> set:
    """Names that the package, the demos, the benchmark and the tools use.

    A name is used where it is loaded or read as an attribute; outside the
    package, a `from ... import` of it counts too.  The tests do not count.
    """
    reached = set()
    for tree in ("src/harmonium", "demos", "benchmark", "tools"):
        for path in (ROOT / tree).rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reached.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reached.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and tree != "src/harmonium":
                    reached.update(alias.name for alias in node.names)
    return reached


def test_every_export_is_reached():
    # an export that only the tests call is surface to delete
    unreached = set(harmonium.__all__) - {"__version__"} - _reached_names()
    assert not unreached
