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


def names_in(path: Path, kernel: str) -> list:
    """Each place in one module that names, imports or defines `kernel`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
            name = node.name
        if name == kernel:
            found.append(f"{path.name}:{node.lineno}:{name}")
    return found


def names_outside(home: str, kernel: str) -> list:
    """Each place in a module other than `home` that names `kernel`."""
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != home]
    return [found for path in paths for found in names_in(path, kernel)]


def test_only_linalg_picks_an_elimination():
    """The one elimination stays inside linalg: no other module names
    `_eliminate`; they call `_solve_rows` or the public routines instead."""
    assert (SRC / "linalg.py").read_text().count("def _eliminate(") == 1
    assert names_outside("linalg.py", "_eliminate") == []


def test_only_poly_runs_euclid():
    """The one extended Euclid stays inside poly: no other module names
    `_euclid`; they call `_inverse` or `xgcd` instead."""
    assert (SRC / "poly.py").read_text().count("def _euclid(") == 1
    assert names_outside("poly.py", "_euclid") == []


def test_points_and_curves_are_read_not_converted():
    """A GroupoidPoint and a CurveParams hold their kernel pairs, so no
    module names the converters `_bare`, `_curve_ints` or `_box_point`,
    and cantor names neither `_ints` nor `_box`: it reads the pairs of
    its inputs and builds no Scalar."""
    for converter in ("_bare", "_curve_ints", "_box_point"):
        assert names_outside("", converter) == []
    assert names_in(SRC / "cantor.py", "_ints") + names_in(SRC / "cantor.py", "_box") == []
