"""Every piece of state the package keeps is read: each dataclass field, and each attribute
a public class of ``convalg`` assigns on ``self``, is read as an attribute somewhere in the
package, the benchmark or the tests, so a field that nothing reads does not stay."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_dataclass(cls):
    for d in cls.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name) and d.id == "dataclass":
            return True
    return False


def kept_state(source):
    """``Class.attribute`` for each dataclass field and each ``self.attribute = ...``
    of a public class in ``source``, in order."""
    kept = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls):
            kept += [
                f"{cls.name}.{s.target.id}"
                for s in cls.body
                if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            ]
        if not cls.name.startswith("_"):
            kept += [
                f"{cls.name}.{n.attr}"
                for n in ast.walk(cls)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                and isinstance(n.value, ast.Name) and n.value.id == "self"
            ]
    return kept


def read_attributes(source):
    """Attribute names that ``source`` reads; an assignment to an attribute is no read."""
    return {
        n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def test_every_field_and_attribute_is_read():
    package = sorted((ROOT / "src" / "convalg").glob("*.py"))
    paths = package + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    read = set().union(*(read_attributes(p.read_text(encoding="utf-8")) for p in paths))
    kept = [k for p in package for k in kept_state(p.read_text(encoding="utf-8"))]
    assert [k for k in kept if k.split(".")[1] not in read] == []


def test_assignments_and_private_classes_do_not_count():
    source = (
        "@dataclass(frozen=True)\nclass Point:\n    x: int\n    y: int = 0\n    LIMIT = 3\n"
        "class Box:\n    def __init__(self, size):\n        self.size = size\n"
        "        self.edge = self.size\n"
        "class _Hidden:\n    def __init__(self):\n        self.state = 1\n"
        "box.width = 2\n"
    )
    assert kept_state(source) == ["Point.x", "Point.y", "Box.size", "Box.edge"]
    assert read_attributes(source) == {"size"}
