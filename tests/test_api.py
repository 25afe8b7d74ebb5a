"""The public API is consistent: every ``__all__`` entry of a module resolves,
every name the package re-exports is in its module's ``__all__``, and every
``__all__`` entry has a reader outside the tests."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import dirichlet_reg

MODULES = sorted(m.name for m in pkgutil.iter_modules(dirichlet_reg.__path__))
ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def _names_read(path):
    """Names a Python file loads or reads as attributes.  A definition, an
    ``__all__`` string and an import are not reads."""
    read = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_every_public_name_has_a_reader_outside_the_tests():
    # readers: the package's code, the demos, the benchmark, or the README
    files = [f for d in ("src", "demos", "perfbench") for f in (ROOT / d).rglob("*.py")]
    read = set().union(*map(_names_read, files))
    readme = (ROOT / "README.md").read_text()
    unread = [
        f"{name}.{entry}"
        for name in MODULES
        for entry in getattr(importlib.import_module(f"dirichlet_reg.{name}"), "__all__", ())
        if entry not in read and not re.search(rf"\b{re.escape(entry)}\b", readme)
    ]
    assert unread == []
