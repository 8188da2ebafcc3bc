"""No module of the package or of its tests imports a name it never reads.

Read with the standard library's ast alone: a name bound by an import
counts as read when an ast.Name node anywhere in the module carries it (an
attribute access a.b reads a).  `from __future__` imports bind nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """The names that source binds by an import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    assert unused_imports("import os.path\nfrom a import b as c, d\n"
                          "from __future__ import annotations\nd()\n") == [
        "c", "os"]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted([*(ROOT / "src" / "hopfcheck").rglob("*.py"),
                    *(ROOT / "tests").rglob("*.py")])
    assert len(paths) > 10
    unused = {str(p.relative_to(ROOT)): names for p in paths
              if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert unused == {}
