"""No module of the package sums sparse vectors by hand.

A vector holds no zero entry and a missing index means zero; linalg.axpy
and linalg.sum_terms own that rule.  A hand-written sum onto
`x.get(k, ZERO)` states the rule again, adds to a zero that is not there
and leaves zeros behind.  Read with the standard library's ast alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _zero_default_get(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and len(node.args) == 2
            and isinstance(node.args[1], ast.Name) and node.args[1].id == "ZERO")


def zero_default_sums(source: str) -> list[int]:
    """The lines of source that add to or subtract from x.get(k, ZERO)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BinOp)
                  and isinstance(node.op, (ast.Add, ast.Sub))
                  and (_zero_default_get(node.left)
                       or _zero_default_get(node.right)))


def test_zero_default_sums_are_found():
    assert zero_default_sums(
        "a = d.get(k, ZERO) + v\nb = v - d.get(k, ZERO)\nc = d.get(k, ZERO)\n"
        "e = d.get(k, 0) + v\nf = d.get(k) + v\n") == [1, 2]


def test_no_module_sums_onto_a_zero_default():
    paths = sorted((ROOT / "src" / "hopfcheck").rglob("*.py"))
    assert len(paths) > 10
    found = {str(p.relative_to(ROOT)): lines for p in paths
             if (lines := zero_default_sums(p.read_text(encoding="utf-8")))}
    assert found == {}
