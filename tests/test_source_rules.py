"""Rules on the package source that no other test can see."""

from __future__ import annotations

import ast
from pathlib import Path

import wittkit

SRC = Path(wittkit.__file__).resolve().parent


def _is_type_narrowing(node: ast.Assert) -> bool:
    """``assert x is not None`` (or an ``and`` of such tests), without a
    message: all it does is tell a type checker what the code knows."""

    def not_none(test: ast.expr) -> bool:
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return all(not_none(v) for v in test.values)
        return (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.IsNot)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        )

    return node.msg is None and not_none(node.test)


def test_no_check_is_stripped_by_python_O():
    # python -O compiles asserts away; a check that must run raises instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert) and not _is_type_narrowing(node)
    ]
    assert found == []
