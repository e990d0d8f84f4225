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


def test_only_linalg_picks_an_elimination():
    """The choice of elimination per field stays inside linalg: no other
    module names its kernels `_reduce` or `_bareiss`; they call
    `_solve_rows` or the public routines instead."""
    kernels = {"_reduce", "_bareiss"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in kernels:
                found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == []
