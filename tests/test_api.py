"""The public surface: each layer's __all__ and their total, and the number
of defaulted parameters on public callables.  The package itself exports
nothing, so each name has one import path, through its module."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import degenflow

LAYERS = ("model", "linear_flow", "bismut", "regularization", "sde", "persist")

# Defaulted parameters on public functions, methods and __init__s across the
# package.  Each is an option callers and tests must cover, so adding one
# raises this bound in the same change, and removing one lowers it.
MAX_DEFAULTED = 3

# Names in the layers' __all__ lists together.  Each is surface to document
# and keep, so adding one raises this bound in the same change, and removing
# one lowers it.
MAX_PUBLIC = 68


def _tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


def _public_definitions(module) -> set:
    return {node.name for node in _tree(module).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _n_defaults(fn: ast.FunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_lists_its_public_definitions(layer):
    module = importlib.import_module(f"degenflow.{layer}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == _public_definitions(module)


def test_public_names_stay_within_bound():
    assert sum(len(importlib.import_module(f"degenflow.{layer}").__all__)
               for layer in LAYERS) <= MAX_PUBLIC


def test_package_re_exports_nothing():
    # a re-export is a second import path for a name, and it would load the
    # numerical layers for every command, validate and list-scenarios too
    assert not [node for node in ast.walk(_tree(degenflow))
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_defaulted_public_parameters_stay_within_bound():
    count = 0
    for path in Path(degenflow.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                count += _n_defaults(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                count += sum(_n_defaults(m) for m in node.body
                             if isinstance(m, ast.FunctionDef)
                             and (m.name == "__init__" or not m.name.startswith("_")))
    assert count <= MAX_DEFAULTED


def test_no_runner_rejects_a_config():
    # validate_config is the one gate for a config, so that validate rejects
    # whatever run rejects; a runner-side check is a visible change here
    from degenflow import scenarios
    tree = _tree(scenarios)
    names = ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
             | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
             | {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                for a in n.names})
    assert "ConfigError" not in names


def test_only_main_maps_errors_to_exit_codes():
    from degenflow import cli
    catching = [f.name for f in _tree(cli).body if isinstance(f, ast.FunctionDef)
                and any(isinstance(n, ast.Try) for n in ast.walk(f))]
    assert catching == ["main"]
