"""Every public name that ``convalg`` exports earns its place: a module of the package
other than ``__init__.py`` uses it, or the benchmark in ``bench/`` names it, so a
function that only the tests call does not stay in the public API. The same holds for
each public method and property of an exported class."""

import ast
import functools
import inspect
import re
import types
from pathlib import Path

import convalg

ROOT = Path(__file__).resolve().parents[1]


def used_names(source):
    """Names read through ``Name`` or ``Attribute`` nodes, except inside a function or
    class definition of the same name, so that recursion is no use."""
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and node.id not in defining:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(source), frozenset())
    return used


def package_uses():
    used = set()
    for path in sorted((ROOT / "src" / "convalg").glob("*.py")):
        if path.name != "__init__.py":
            used |= used_names(path.read_text(encoding="utf-8"))
    return used


def bench_source():
    return "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))


def unused(names, used, bench):
    """The names whose last dotted part is neither in ``used`` nor a word of ``bench``."""
    return [n for n in names if (last := n.rpartition(".")[2]) not in used
            and not re.search(rf"\b{last}\b", bench)]


def public_exports(package):
    return [
        name
        for name, value in vars(package).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]


def public_members(package):
    """``Class.name`` for each method or property that an exported class defines in its own
    body under a name without a leading underscore."""
    return [
        f"{name}.{attr}"
        for name, cls in vars(package).items()
        if inspect.isclass(cls) and not name.startswith("_")
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(
            value, (classmethod, staticmethod, property, functools.cached_property)))
    ]


def test_every_export_is_used_by_the_package_or_the_benchmark():
    assert unused(public_exports(convalg), package_uses(), bench_source()) == []


def test_every_public_method_is_used_by_the_package_or_the_benchmark():
    assert unused(public_members(convalg), package_uses(), bench_source()) == []


def test_own_definition_and_imports_are_not_uses():
    source = (
        "from .lattice import imported\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Cls:\n    def method(self):\n        return Cls, helper(), self.attribute\n"
    )
    assert used_names(source) == {"helper", "self", "attribute", "n"}


def test_members_are_public_methods_and_properties_of_public_classes():
    class Cls:
        field = 1

        def method(self):
            pass

        @property
        def prop(self):
            pass

        @classmethod
        def build(cls):
            pass

        def _private(self):
            pass

        def __call__(self):
            pass

    package = types.SimpleNamespace(Cls=Cls, _Hidden=Cls, function=len)
    assert public_members(package) == ["Cls.method", "Cls.prop", "Cls.build"]
    assert unused(public_members(package), {"method"}, "x.prop") == ["Cls.build"]
