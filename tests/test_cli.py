import json

from hypadd import GroupoidPoint, cli, invert, make_field, star, to_mumford
from hypadd.cantor import cantor_add
from hypadd.cli import run
from hypadd.errors import InvariantViolation
from hypadd.jsonio import (
    curve_from_json,
    curve_to_json,
    divisor_to_json,
    dumps,
    point_from_json,
    point_to_json,
)
from tests.conftest import q_pair, seeded

Q = make_field("q")


def qs(*vals):
    return tuple(Q.scalar(v) for v in vals)


A1 = GroupoidPoint(qs(2), qs(3), qs(0))
A2 = GroupoidPoint(qs(0), qs(1), qs(0))
CURVE_OBJ = {"genus": 1, "field": "q", "lambda": ["0", "1"]}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(dumps(obj))
    return str(p)


def setup_worked(tmp_path):
    c = write(tmp_path, "curve.json", CURVE_OBJ)
    a = write(tmp_path, "a.json", point_to_json(A1))
    b = write(tmp_path, "b.json", point_to_json(A2))
    return c, a, b


def test_add_worked_example(tmp_path, capsys):
    c, a, b = setup_worked(tmp_path)
    assert run(["add", "--curve", c, "--a", a, "--b", b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert point_from_json(Q, out) == GroupoidPoint(qs(-1), qs(0), qs(0))


def test_add_methods_agree(tmp_path, capsys):
    c, a, b = setup_worked(tmp_path)
    for method in ("groupoid", "cantor", "both"):
        assert run(["add", "--curve", c, "--a", a, "--b", b, "--method", method]) == 0
        out = json.loads(capsys.readouterr().out)
        assert point_from_json(Q, out) == GroupoidPoint(qs(-1), qs(0), qs(0))


def test_add_doubling_exits_3_and_names_fallback(tmp_path, capsys):
    c, a, _ = setup_worked(tmp_path)
    code = run(["add", "--curve", c, "--a", a, "--b", a])
    captured = capsys.readouterr()
    assert code == 3
    err = json.loads(captured.err)
    assert err["error"] == "DegenerateConfiguration"
    assert err["stage"] == "h_solve"
    assert "cantor" in err["fallback"]


def test_add_invariant_violation_exits_1(tmp_path, capsys, monkeypatch):
    c, a, b = setup_worked(tmp_path)

    def broken(*args, **kwargs):
        raise InvariantViolation("determinant route disagrees")

    monkeypatch.setattr(cli, "star", broken)
    assert run(["add", "--curve", c, "--a", a, "--b", b]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "InvariantViolation"


def test_add_doubling_succeeds_via_cantor(tmp_path, capsys):
    c, a, _ = setup_worked(tmp_path)
    assert run(["add", "--curve", c, "--a", a, "--b", a, "--method", "cantor"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert point_from_json(Q, out) == A2  # 2*(2,3) = (0,1) on y^2 = x^3 + 1


def test_add_opposite_points_sub_generic_exit_1(tmp_path, capsys):
    c, a, _ = setup_worked(tmp_path)
    neg = write(tmp_path, "neg.json", point_to_json(invert(A1)))
    code = run(["add", "--curve", c, "--a", a, "--b", neg, "--method", "cantor"])
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.err)
    assert err["error"] == "NonGenericDivisor"
    assert err["divisor"]["u"] == ["1"]


def test_add_off_curve_point_exits_2(tmp_path, capsys):
    c, a, _ = setup_worked(tmp_path)
    bad = write(tmp_path, "bad.json", point_to_json(GroupoidPoint(qs(0), qs(2), qs(0))))
    code = run(["add", "--curve", c, "--a", a, "--b", bad])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"] == "AnchorMismatch"


def test_invert_command(tmp_path, capsys):
    c, a, _ = setup_worked(tmp_path)
    assert run(["invert", "--curve", c, "--a", a]) == 0
    out = json.loads(capsys.readouterr().out)
    assert point_from_json(Q, out) == invert(A1)


def test_anchor_command(tmp_path, capsys):
    c, a, _ = setup_worked(tmp_path)
    assert run(["anchor", "--curve", c, "--a", a]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"z1": ["1"], "z2": ["0"]}


def test_cantor_add_command(tmp_path, capsys):
    c, _, _ = setup_worked(tmp_path)
    curve = curve_from_json(CURVE_OBJ)
    d1 = to_mumford(A1, curve)
    d2 = to_mumford(A2, curve)
    pa = write(tmp_path, "d1.json", divisor_to_json(d1))
    pb = write(tmp_path, "d2.json", divisor_to_json(d2))
    assert run(["cantor-add", "--curve", c, "--a", pa, "--b", pb]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == divisor_to_json(cantor_add(d1, d2, curve))


def test_cantor_add_rejects_invalid_divisor(tmp_path, capsys):
    c, _, _ = setup_worked(tmp_path)
    pa = write(tmp_path, "d1.json", {"u": ["-2", "1"], "v": ["4"]})
    pb = write(tmp_path, "d2.json", {"u": ["0", "1"], "v": ["1"]})
    code = run(["cantor-add", "--curve", c, "--a", pa, "--b", pb])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"] == "NotOnJacobian"


def test_random_point_deterministic_q(tmp_path, capsys):
    rng = seeded("cli-rand")
    base, _, _ = q_pair(2, rng)
    c = write(tmp_path, "curve2.json", curve_to_json(base))
    assert run(["random-point", "--curve", c, "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert run(["random-point", "--curve", c, "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    fitted = curve_from_json(doc["curve"])
    a = point_from_json(Q, doc["point"])
    from hypadd import anchor

    assert anchor(a) == (fitted.lambda1, fitted.lambda2)
    assert fitted.lambda2 == base.lambda2


def test_random_point_fp_stays_on_curve(tmp_path, capsys):
    obj = {"genus": 1, "field": "fp:10007", "lambda": [3, 7]}
    c = write(tmp_path, "curvefp.json", obj)
    assert run(["random-point", "--curve", c, "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["curve"] == {"genus": 1, "field": "fp:10007", "lambda": [3, 7]}
    F = make_field("fp", 10007)
    a = point_from_json(F, doc["point"])
    from hypadd import anchor

    z1, z2 = anchor(a)
    # ascending lambda list [3, 7] pins lambda_4 = 3, lambda_6 = 7
    assert [s.value for s in z1] == [7]
    assert [s.value for s in z2] == [3]


def test_field_override_reduces_curve_mod_p(tmp_path, capsys):
    c, a, b = setup_worked(tmp_path)
    assert run(["add", "--curve", c, "--field", "fp:10007", "--a", a, "--b", b]) == 0
    out = json.loads(capsys.readouterr().out)
    F = make_field("fp", 10007)
    got = point_from_json(F, out)
    assert got.p_even == (F.scalar(-1),)
    assert got.p_odd == (F.scalar(0),)


def test_verify_deterministic_and_green(tmp_path, capsys):
    c, _, _ = setup_worked(tmp_path)
    argv = [
        "verify", "--curve", c, "--trials", "4", "--seed", "9",
        "--props", "comm,inverse,anchor,oracle,closedform",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["ok"] is True
    assert report["props"]["comm"]["pass"] is True
    assert report["props"]["closedform"]["pass"] is True


def test_verify_fp_without_curve(capsys):
    argv = [
        "verify", "--field", "fp:10007", "--genus", "2", "--trials", "3",
        "--seed", "2", "--props", "assoc,rank,grading,pgg",
    ]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["genus"] == 2


def test_verify_closedform_skips_high_genus(capsys):
    argv = [
        "verify", "--field", "fp:10007", "--genus", "3", "--trials", "2",
        "--seed", "1", "--props", "closedform",
    ]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["props"]["closedform"]["status"] == "skipped"


def test_verify_unknown_prop_exits_2(capsys):
    code = run(["verify", "--field", "q", "--genus", "1", "--props", "nope"])
    capsys.readouterr()
    assert code == 2


def test_verify_needs_curve_or_field(capsys):
    code = run(["verify", "--props", "comm"])
    capsys.readouterr()
    assert code == 2


def test_usage_error_exits_2(capsys):
    assert run(["add"]) == 2
    capsys.readouterr()


def test_bad_json_exits_2(tmp_path, capsys):
    p = tmp_path / "nonsense.json"
    p.write_text("{")
    code = run(["anchor", "--curve", str(p), "--a", str(p)])
    capsys.readouterr()
    assert code == 2


def test_genus_contradiction_exits_2(tmp_path, capsys):
    c, a, _ = setup_worked(tmp_path)
    code = run(["anchor", "--curve", c, "--genus", "2", "--a", a])
    capsys.readouterr()
    assert code == 2
