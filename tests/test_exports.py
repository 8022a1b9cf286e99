"""Every public name that ``convalg`` exports earns its place: a module of the package
other than ``__init__.py`` uses it, or the benchmark in ``bench/`` names it, so a
function that only the tests call does not stay in the public API."""

import ast
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


def unused_exports(package, bench):
    exports = [
        name
        for name, value in vars(package).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    used = set()
    for path in sorted((ROOT / "src" / "convalg").glob("*.py")):
        if path.name != "__init__.py":
            used |= used_names(path.read_text(encoding="utf-8"))
    return [n for n in exports if n not in used and not re.search(rf"\b{n}\b", bench)]


def test_every_export_is_used_by_the_package_or_the_benchmark():
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))
    assert unused_exports(convalg, bench) == []


def test_own_definition_and_imports_are_not_uses():
    source = (
        "from .lattice import imported\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Cls:\n    def method(self):\n        return Cls, helper(), self.attribute\n"
    )
    assert used_names(source) == {"helper", "self", "attribute", "n"}
