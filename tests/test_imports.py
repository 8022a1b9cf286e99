"""No module imports a name it never reads: every name an import binds in a package
module or a test module is read by some ``Name`` node of that module. The package's
``__init__.py`` is skipped, since its imports are the re-exports, and so are
``from __future__`` imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source):
    """Names bound by the imports of ``source`` that no ``Name`` node reads, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_imported_name_is_read():
    paths = [p for p in sorted((ROOT / "src" / "convalg").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = {
        p.relative_to(ROOT).as_posix(): names
        for p in paths
        if (names := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_reads_count_and_future_imports_do_not():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import gcd, lcm as l\n"
        "print(os.sep, l)\n"
    )
    assert unused_imports(source) == ["j", "gcd"]
