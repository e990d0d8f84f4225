"""Rules the library source keeps, checked on its syntax tree, and one
boundary that only a run can show, checked by counting Scalars."""

import ast
from pathlib import Path

import hypadd
from hypadd import cli, invert, make_field, rank_witness, star
from hypadd.errors import DegenerateConfiguration
from hypadd.field import Scalar
from tests.conftest import TEST_PRIME, fp_pair, q_pair, seeded

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
    `_eliminate`; they call `_solve_rows` or `_rank_rows` instead."""
    assert (SRC / "linalg.py").read_text().count("def _eliminate(") == 1
    assert names_outside("linalg.py", "_eliminate") == []


def test_only_poly_runs_euclid():
    """The one extended Euclid stays inside poly: no other module names
    `_euclid`; they call `_inverse` or `xgcd` instead."""
    assert (SRC / "poly.py").read_text().count("def _euclid(") == 1
    assert names_outside("poly.py", "_euclid") == []


def test_only_poly_packs_words():
    """The packed-word F_p kernels stay inside poly: no other module
    imports `array` or names `_pack`; they call `_mul` and `_divmod`."""
    assert (SRC / "poly.py").read_text().count("def _pack(") == 1
    assert names_outside("poly.py", "array") == []
    assert names_outside("poly.py", "_pack") == []


def test_points_and_curves_are_read_not_converted():
    """A GroupoidPoint and a CurveParams hold their kernel pairs, so no
    module names the converters `_bare`, `_curve_ints` or `_box_point`,
    and cantor names neither `_ints` nor `_box`: it reads the pairs of
    its inputs and builds no Scalar."""
    for converter in ("_bare", "_curve_ints", "_box_point"):
        assert names_outside("", converter) == []
    assert names_in(SRC / "cantor.py", "_ints") + names_in(SRC / "cantor.py", "_box") == []


def test_only_poly_and_the_divisor_constructor_read_den():
    """Outside poly, a Poly's denominator slot `_den` is named only where
    the MumfordDivisor constructor reads its two input Polys, once each;
    everything else passes kernel pairs or reads them through `poly._read_values`."""
    tree = ast.parse((SRC / "cantor.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "MumfordDivisor")
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    reads = [n.value.id for n in ast.walk(init) if isinstance(n, ast.Attribute) and n.attr == "_den"]
    assert sorted(reads) == ["u", "v"]
    assert len(names_outside("poly.py", "_den")) == 2


def test_fraction_stays_in_the_field_layers():
    """Scalars and pairs cross in field and poly, so besides them only
    closedform names `Fraction`; linalg, groupoid and cantor do not."""
    naming = {found.split(":")[0] for found in names_outside("", "Fraction")}
    assert naming <= {"field.py", "poly.py", "closedform.py"}
    for module in ("linalg.py", "groupoid.py", "cantor.py"):
        assert names_in(SRC / module, "Fraction") == []


def test_rank_witness_builds_no_scalar(monkeypatch):
    """rank_witness stacks int rows from the points' pairs and ranks them
    without boxing a Scalar, at genus 2 and 8 over F_p and genus 2 over Q."""
    rng, p = seeded("rank-no-scalar"), make_field("fp", TEST_PRIME)
    cases = []
    for genus, field in ((2, p), (8, p), (2, None)):
        found = 0
        while found < 3:
            _, a, b = fp_pair(field, genus, rng) if field else q_pair(genus, rng)
            try:
                cases.append((a, b, star(a, b)))
            except DegenerateConfiguration:
                continue
            found += 1
    built, real_init = [], Scalar.__init__

    def counted(self, field, value):
        built.append(value)
        real_init(self, field, value)

    monkeypatch.setattr(Scalar, "__init__", counted)
    for a, b, s in cases:
        assert rank_witness(a, b, s)
        assert not rank_witness(a, b, invert(s))
    assert built == []


# Names in src/ that nothing in src/ references outside their own body,
# and why each stays; every other name must have a caller there.
UNCALLED = {
    # exported API (hypadd.__all__) that the library does not call itself
    "cantor.cantor_neg",
    "cantor.identity_divisor",
    "groupoid.u_poly",
    "groupoid.v_poly",
    "groupoid.viete_phi",
    # public methods that the tests' reference routes read
    "poly.Poly.lc",
    "poly.Poly.monic",
    # independent oracles and references for the tests
    "groupoid.anchor_s",
    "groupoid.build_r_determinant",
    "groupoid.phi_poly",
    "identities.check_g1_wp_prime_sum",
    "identities.check_zp_consistency",
    "poly.from_roots",
}


def definitions() -> list:
    """(module.name, node) for each module-level function and class of
    src/hypadd and each method that is not a dunder, as module.Class.name."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found.append((f"{path.stem}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{path.stem}.{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    return found


def references() -> list:
    """(module, line, name, is_attribute) for each name loaded or
    attribute read in src/hypadd; stores, imports and `__all__` strings
    are not references."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                is_attribute = isinstance(node, ast.Attribute)
                name = node.attr if is_attribute else node.id
                found.append((path.stem, node.lineno, name, is_attribute))
    return found


def test_every_name_has_a_caller_or_a_reason():
    """Each function, class and method of src/ is referenced in src/
    outside its own body, or listed in UNCALLED: a new uncalled helper
    fails here, and so does a listed name that gained a caller or went.
    A method counts as called only through an attribute read (x.lc), so
    a local variable of the same name does not call it."""
    refs = references()
    uncalled = {
        qual
        for qual, node in definitions()
        if not any(
            name == qual.rsplit(".", 1)[1]
            and (is_attribute or qual.count(".") == 1)
            and not (module == qual.split(".")[0] and node.lineno <= line <= node.end_lineno)
            for module, line, name, is_attribute in refs
        )
    }
    assert uncalled == UNCALLED


def test_no_scalar_matrix_layer():
    """Every solve and rank runs on int rows, so no module defines or
    names a Scalar matrix API: `Matrix`, `vandermonde` or `NotSquare`."""
    for name in ("Matrix", "vandermonde", "NotSquare"):
        assert names_outside("", name) == []
        assert name not in hypadd.__all__


def test_no_expression_dag():
    """The shift operator L is stated once, as the derivative along L(p)
    in closedform: there is no expr.py, and no module defines or names
    an expression DAG (`Expr`, `Var`, `apply_L`) or its errors."""
    assert not (SRC / "expr.py").exists()
    for name in ("Expr", "Var", "apply_L", "UnknownVariable", "UnboundVariable", "ZeroDenominator"):
        assert names_outside("", name) == []
        assert name not in hypadd.__all__


def test_identities_check_only_what_can_fail():
    """The genus-2 zeta relation holds for any p222s, so no module
    defines or names `zp_relation`; and identities writes the p2 sum
    rule's right side h1^2 - 2 h2 once, for both checkers that make it."""
    assert names_outside("", "zp_relation") == []
    assert (SRC / "identities.py").read_text().count("h1 * h1 - 2 * h2") == 1


def test_closed_forms_and_grading_compute_on_bare_values():
    """g1_add, g2_add and grade_scale compute on the bare values of their
    inputs' kernel pairs and box only the answer: closedform names no
    `Poly`, `p_even` or `p_odd` and calls no `.scalar(`, and grade_scale
    reads none of the boxed coordinates p_even, p_odd, z, lambda1 and
    lambda2."""
    closedform = SRC / "closedform.py"
    for name in ("Poly", "p_even", "p_odd"):
        assert names_in(closedform, name) == []
    assert ".scalar(" not in closedform.read_text()
    tree = ast.parse((SRC / "groupoid.py").read_text())
    grade = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "grade_scale")
    boxed = {"p_even", "p_odd", "z", "lambda1", "lambda2"}
    assert [n.attr for n in ast.walk(grade) if isinstance(n, ast.Attribute) and n.attr in boxed] == []


def test_linalg_imports_only_errors():
    """linalg stays the int-row elimination: it imports only its errors,
    so it cannot box Scalars or build Polys."""
    tree = ast.parse((SRC / "linalg.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert [(n.level, n.module) for n in imports] == [(1, "errors")]


def test_cantor_imports_only_the_transported_classes():
    """Cantor is the oracle, so from groupoid it imports only the two
    classes it transports between, CurveParams and GroupoidPoint, and
    runs none of star's helpers; no module keeps a second membership
    test `_on_curve` next to cantor's."""
    tree = ast.parse((SRC / "cantor.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    from_groupoid = [a.name for n in imports if n.module == "groupoid" for a in n.names]
    assert sorted(from_groupoid) == ["CurveParams", "GroupoidPoint"]
    assert [a.name for n in imports if n.module is None for a in n.names if a.name == "groupoid"] == []
    assert names_outside("", "_on_curve") == []


def enclosing(match) -> list:
    """The qualified name (module.Class.function) of the class or function
    around each node of src/ for which match(node) holds."""
    found = []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(qual)
            inner = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{qual}.{child.name}" if inner else qual)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def raisers(error: str) -> list:
    """The qualified name of the function around each `raise` of error in src/."""
    return enclosing(
        lambda n: isinstance(n, ast.Raise)
        and n.exc is not None
        and any(getattr(x, "id", None) == error for x in ast.walk(n.exc))
    )


def test_only_the_point_list_refuses_a_repeated_abscissa():
    """A PointListRep checks its abscissas once, when it is built, so
    viete_phi and anchor_s read points that are already distinct."""
    assert raisers("RepeatedAbscissa") == ["groupoid.PointListRep.__init__"]


def modulus_tests(fn) -> list:
    """The line of each if, while or conditional expression in fn whose
    test reads `.modulus` or a name that fn binds to `.modulus`, as in
    `p = self.field.modulus` or `p, g = field.modulus, genus`."""
    bound = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.Assign) and len(n.targets) == 1:
            target, value = n.targets[0], n.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            for t, v in pairs:
                if isinstance(t, ast.Name) and getattr(v, "attr", None) == "modulus":
                    bound.add(t.id)
    return [
        n.lineno
        for n in ast.walk(fn)
        if isinstance(n, (ast.If, ast.IfExp, ast.While))
        and any(
            getattr(x, "id", None) in bound or getattr(x, "attr", None) == "modulus"
            for x in ast.walk(n.test)
        )
    ]


def test_one_statement_per_job_above_the_kernels():
    """Poly builds, scales and evaluates through the kernels: its
    constructor, `__mul__` and `__call__` build no Fraction or Scalar and
    test no modulus.  The h-solve `_solve_h_core` runs one body for both
    fields, with no `if` or conditional expression.  cli states the verify
    properties once, as KNOWN_PROPS, which maps each name to its check:
    there is no `_check_prop`."""
    tree = ast.parse((SRC / "poly.py").read_text())
    poly = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Poly")
    methods = [n for n in poly.body if isinstance(n, ast.FunctionDef)]
    methods = [n for n in methods if n.name in ("__init__", "__mul__", "__call__")]
    assert len(methods) == 3
    for fn in methods:
        calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
        built = [n.func.id for n in calls]
        assert {"Fraction", "Scalar"}.isdisjoint(built), fn.name
        assert modulus_tests(fn) == [], fn.name
    tree = ast.parse((SRC / "groupoid.py").read_text())
    solve = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_solve_h_core")
    branches = [n for n in ast.walk(solve) if isinstance(n, (ast.If, ast.IfExp))]
    assert branches + [n for n in ast.walk(solve) if getattr(n, "ifs", None)] == []
    assert names_in(SRC / "cli.py", "_check_prop") == []
    assert isinstance(cli.KNOWN_PROPS, dict) and all(callable(v) for v in cli.KNOWN_PROPS.values())


def test_each_boundary_states_its_rule_once():
    """Scalar's eight binary operators come in forward and reflected
    pairs from one helper, `_operators`, which holds the one operand lift,
    so no module names `_lift`.  Interpolated points reach
    `GroupoidPoint._make` as `_interpolate`'s canonical pairs, so no
    module names `_phi_values`.  `cli.run` prints every error document
    in one place, and cli keeps no guard for a --curve that argparse
    already requires."""
    for name in ("_phi_values", "_lift"):
        assert names_outside("", name) == []
    tree = ast.parse((SRC / "field.py").read_text())
    scalar = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Scalar")
    made = [
        tuple(t.id for t in n.targets[0].elts)
        for n in scalar.body
        if isinstance(n, ast.Assign)
        and isinstance(n.value, ast.Call)
        and getattr(n.value.func, "id", None) == "_operators"
    ]
    assert made == [
        ("__add__", "__radd__"),
        ("__sub__", "__rsub__"),
        ("__mul__", "__rmul__"),
        ("__truediv__", "__rtruediv__"),
    ]
    defined = [n.name for n in scalar.body if isinstance(n, ast.FunctionDef)]
    assert set(defined).isdisjoint(name for pair in made for name in pair)
    tree = ast.parse((SRC / "cli.py").read_text())
    run = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run")
    prints = [n for n in ast.walk(run) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "print"]
    assert len(prints) == 1
    assert "this command needs --curve" not in (SRC / "cli.py").read_text()


def test_values_follow_one_rule():
    """Equality, hashing and the private constructor come from each value
    class's slots through `field._Value`: only `_Value` and Scalar (whose
    equality lifts ints) define or assign `__eq__` or `__hash__`, no
    module names a second bypass constructor `_wrap`, and only
    `_Value._make` calls `cls.__new__`."""

    def defines_eq_or_hash(node):
        if isinstance(node, ast.FunctionDef):
            return node.name in ("__eq__", "__hash__")
        targets = node.targets if isinstance(node, ast.Assign) else []
        names = [t for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        return any(t.id in ("__eq__", "__hash__") for t in names)

    assert sorted(enclosing(defines_eq_or_hash)) == ["field.Scalar"] * 2 + ["field._Value"] * 2
    assert names_outside("", "_wrap") == []
    assert enclosing(lambda n: isinstance(n, ast.Attribute) and n.attr == "__new__") == ["field._Value._make"]
