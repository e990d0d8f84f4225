"""Rules the library source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hypadd"


def test_src_has_no_assert():
    """Invariants raise typed HypaddErrors, so they still run under
    python -O; an assert statement would vanish there."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
