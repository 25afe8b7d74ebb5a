"""The public API is consistent: every ``__all__`` entry of a module resolves,
the package publishes exactly the modules' ``__all__`` entries, and every
``__all__`` entry and every public method of a listed class has a reader
outside the tests."""

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


def _public_names():
    """(module name, entry, object) for every ``__all__`` entry of every module."""
    modules = {name: importlib.import_module(f"dirichlet_reg.{name}") for name in MODULES}
    return [(name, entry, getattr(mod, entry))
            for name, mod in modules.items() for entry in getattr(mod, "__all__", ())]


def test_package_publishes_exactly_the_modules_public_names():
    names = _public_names()
    declared = {entry: obj for _, entry, obj in names}
    assert len(declared) == len(names)  # no name is defined in two modules
    published = {name: obj for name, obj in vars(dirichlet_reg).items()
                 if not name.startswith("_") and not inspect.ismodule(obj)}
    assert set(published) == set(declared)
    assert all(published[name] is obj for name, obj in declared.items())


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


def _unread(names):
    """The names with no reader outside the tests: none of the package's
    code, the demos or the benchmark reads them, and the README does not
    name them."""
    files = [f for d in ("src", "demos", "perfbench") for f in (ROOT / d).rglob("*.py")]
    read = set().union(*map(_names_read, files))
    readme = (ROOT / "README.md").read_text()
    unread = []
    for name in names:
        last = name.rpartition(".")[2]
        if last not in read and not re.search(rf"\b{re.escape(last)}\b", readme):
            unread.append(name)
    return unread


def test_every_public_name_has_a_reader_outside_the_tests():
    assert _unread(f"{name}.{entry}" for name, entry, _ in _public_names()) == []


def test_every_public_method_has_a_reader_outside_the_tests():
    methods = [
        f"{name}.{entry}.{attr}"
        for name, entry, cls in _public_names() if inspect.isclass(cls)
        for attr, obj in vars(cls).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or isinstance(obj, (property, classmethod, staticmethod)))
    ]
    assert methods
    assert _unread(methods) == []
