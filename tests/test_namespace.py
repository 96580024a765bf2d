"""The package namespace is the union of the module `__all__` lists, and no module
imports a name it never uses."""

import ast
import importlib
import pathlib

import pytest

import ergolab

MODULES = ["averages", "bounds", "counterexamples", "dyadic", "errors", "operators", "spaces",
           "variation"]

# Adding or removing a public name is a deliberate change: update this list with it.
PUBLIC_NAMES = ["AverageTrajectory", "ConvergenceRateResult", "CountOverflowError", "CyclicShift",
                "DecompositionReport", "DenseMatrix", "DimensionMismatchError", "DriftReport",
                "ErgolabError", "FluctuationReport", "HorizonExhaustedError", "IndexSequence",
                "InvalidInputError", "LowerBoundResult", "Operator", "PRESETS",
                "PowerBoundCertificate", "PreconditionError", "RotationCounterexample",
                "RotationProduct", "SeqFunction", "SpaceDescriptor", "StabilityParameters",
                "StabilityWindowReport", "Vector", "batch_norm_p", "build_rotation_counterexample",
                "check_uniform_convexity", "clarkson_modulus", "conditional_expectation",
                "count_fluctuations", "descriptor_preset", "drift_bound_check",
                "earliest_stable_start", "empirical_convergence_rate", "ergodic_averages",
                "fluctuation_bound_nonexpansive", "fluctuation_in_dyadic_interval", "g_double",
                "g_next_power_of_two", "g_successor", "lpb_norm", "martingale_differences",
                "max_p_variation", "metastability_from_fluctuations", "metastability_rate", "orbit",
                "p_variation_along", "rotation_average_closed_form", "shift_average_at",
                "stability_parameters", "stability_window_check", "transfer_embed",
                "verify_decomposition_inequalities", "verify_metastability_lower_bound",
                "window_fluctuation_bound"]

# What the library reads of an operator; each kind adds only its defining data to these.
OPERATOR_MEMBERS = {"certificate", "dim", "orbit"}

# The value classes' public members: measurements read their arrays, so no point-by-point API.
VECTOR_MEMBERS = {"components", "p", "dim", "norm"}
SEQFUNCTION_MEMBERS = {"lo", "values", "p", "hi", "dim"}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 56
    assert sorted(ergolab.__all__) == PUBLIC_NAMES


def test_operator_protocol_members_are_pinned():
    protocol = ergolab.Operator
    assert set(protocol.__annotations__) | {name for name in vars(protocol) if not name.startswith("_")} \
        == OPERATOR_MEMBERS


@pytest.mark.parametrize("op, data", [(ergolab.RotationProduct([0.1]), {"angles"}), (ergolab.CyclicShift(2), set()),
                                      (ergolab.DenseMatrix([[1.0, 0.0], [0.0, 1.0]]), {"matrix"})],
                         ids=["rotation", "shift", "dense"])
def test_operator_kinds_expose_the_protocol_and_their_data_only(op, data):
    assert {name for name in dir(op) if not name.startswith("_")} == OPERATOR_MEMBERS | data


@pytest.mark.parametrize("value, members", [(ergolab.Vector([1.0], 2.0), VECTOR_MEMBERS),
                                            (ergolab.SeqFunction(0, [[1.0]], 2.0), SEQFUNCTION_MEMBERS)],
                         ids=["Vector", "SeqFunction"])
def test_value_classes_expose_their_pinned_members_only(value, members):
    assert {name for name in dir(value) if not name.startswith("_")} == members


def test_no_vector_arithmetic_or_scalar_products():
    # SeqFunction keeps + and -, which the decomposition checks use
    assert not [name for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")
                if hasattr(ergolab.Vector, name)]
    assert not [name for name in ("__mul__", "__rmul__") if hasattr(ergolab.SeqFunction, name)]


def test_all_is_the_union_of_the_module_lists():
    names = [name for mod in MODULES for name in importlib.import_module(f"ergolab.{mod}").__all__]
    assert len(names) == len(set(names))
    assert ergolab.__all__ == names


def test_each_name_is_the_module_object():
    for mod in MODULES:
        module = importlib.import_module(f"ergolab.{mod}")
        for name in module.__all__:
            assert getattr(ergolab, name) is getattr(module, name), (mod, name)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from ergolab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(ergolab.__all__)
    assert not {"annotations", "np", "math"} & set(namespace)


def test_operator_protocol_and_row_kernel_are_exported():
    assert {"Operator", "batch_norm_p"} <= set(ergolab.__all__)


@pytest.mark.filterwarnings("ignore::UserWarning")  # pyproject [tool.setuptools] is beta
def test_version_is_written_once():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = pathlib.Path(__file__).resolve().parents[1]
    config = pyprojecttoml.read_configuration(root / "pyproject.toml")
    assert config["project"]["version"] == ergolab.__version__


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import (star imports and `__future__` aside) that the module
    never reads, as a name or as a whole string (an `__all__` entry, a quoted annotation)."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
             for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted(name for name in bound if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    src = pathlib.Path(ergolab.__file__).parent
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(src.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
    assert _unused_imports("import math\nfrom .errors import A, B\nprint(B)\n") == ["A", "math"]
