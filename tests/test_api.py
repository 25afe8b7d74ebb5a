"""The public API is consistent: every ``__all__`` entry of a module resolves,
and every name the package re-exports is in its module's ``__all__``."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import dirichlet_reg

MODULES = sorted(m.name for m in pkgutil.iter_modules(dirichlet_reg.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"dirichlet_reg.{name}")
    public = getattr(mod, "__all__", ())
    assert [entry for entry in public if not hasattr(mod, entry)] == []
    assert len(set(public)) == len(public)


def test_package_imports_only_public_names():
    imports = [node for node in ast.parse(inspect.getsource(dirichlet_reg)).body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"dirichlet_reg.{node.module}")
        assert [a.name for a in node.names if a.name not in mod.__all__] == []
