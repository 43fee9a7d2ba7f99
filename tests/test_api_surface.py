"""The public names each module declares are the names it has."""

import ast
import importlib
import pathlib

import pytest

import mmflow

PACKAGE = pathlib.Path(mmflow.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_exists(name):
    module = importlib.import_module(f"mmflow.{name}")
    declared = getattr(module, "__all__", [])
    assert len(declared) == len(set(declared))
    assert [n for n in declared if not hasattr(module, n)] == []


def test_package_all_is_exactly_what_init_binds():
    # every name ``__init__`` imports or assigns at top level, and no other
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    bound.discard("__all__")
    assert len(mmflow.__all__) == len(set(mmflow.__all__))
    assert set(mmflow.__all__) == bound
    assert all(hasattr(mmflow, n) for n in mmflow.__all__)
