"""The package namespace is the union of the module `__all__` lists."""

import importlib
import pathlib

import pytest

import ergolab

MODULES = ["averages", "bounds", "counterexamples", "dyadic", "errors", "operators", "spaces",
           "variation"]


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
