import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hypadd import CurveParams, GroupoidPoint, StarResult, cli, invert, make_field, star, to_mumford
from hypadd.cantor import cantor_add
from hypadd.cli import run
from hypadd.errors import DegenerateConfiguration, InvariantViolation, NonGenericDivisor
from hypadd.jsonio import (
    curve_from_json,
    curve_to_json,
    divisor_to_json,
    dumps,
    point_from_json,
    point_to_json,
)
from tests.conftest import TEST_PRIME, bump_anchor_quotient, fp_pair, q_pair, seeded, shift_g2_low

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


@pytest.mark.parametrize(
    "genus, field, plant, error",
    [
        (2, make_field("fp", TEST_PRIME), shift_g2_low, "NonzeroRemainder"),
        (3, Q, bump_anchor_quotient, "NotMonicDegree3g"),
    ],
    ids=["g2-fp", "g3-q"],
)
def test_add_failed_internal_check_exits_1(tmp_path, capsys, monkeypatch, genus, field, plant, error):
    """A planted fault that trips one of star's exact-division checks is
    a library fault, not a usage error: `hypadd add` exits 1 and names
    the check's error, where the same pair exits 0 without the fault."""
    rng = seeded(f"cli-internal-check-{genus}")
    c, a1, a2 = fp_pair(field, genus, rng) if field.modulus else q_pair(genus, rng)
    argv = ["add", "--curve", write(tmp_path, "c.json", curve_to_json(c))]
    argv += ["--a", write(tmp_path, "a.json", point_to_json(a1))]
    argv += ["--b", write(tmp_path, "b.json", point_to_json(a2))]
    assert run(argv) == 0
    capsys.readouterr()
    plant(monkeypatch)
    assert run(argv) == 1
    assert json.loads(capsys.readouterr().err)["error"] == error


def test_add_methods_that_disagree_exit_1(tmp_path, capsys, monkeypatch):
    """--method both compares star with the Cantor route: a Cantor answer
    off star's exits 1 with both points in a MethodMismatch document."""
    c, a, b = setup_worked(tmp_path)
    monkeypatch.setattr(cli, "from_mumford", lambda d, c: A1)
    assert run(["add", "--curve", c, "--a", a, "--b", b, "--method", "both"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MethodMismatch"
    assert point_from_json(Q, err["groupoid"]) == GroupoidPoint(qs(-1), qs(0), qs(0))
    assert point_from_json(Q, err["cantor"]) == A1


def _method_mismatch(tmp_path, monkeypatch):
    c, a, b = setup_worked(tmp_path)
    monkeypatch.setattr(cli, "from_mumford", lambda d, c: A1)
    return ["add", "--curve", c, "--a", a, "--b", b, "--method", "both"]


def _failed_internal_check(tmp_path, monkeypatch):
    c, a1, a2 = fp_pair(make_field("fp", TEST_PRIME), 2, seeded("cli-internal-check-2"))
    shift_g2_low(monkeypatch)
    argv = ["add", "--curve", write(tmp_path, "c.json", curve_to_json(c))]
    argv += ["--a", write(tmp_path, "a.json", point_to_json(a1))]
    return argv + ["--b", write(tmp_path, "b.json", point_to_json(a2))]


def _doubling(tmp_path, monkeypatch):
    c, a, _ = setup_worked(tmp_path)
    return ["add", "--curve", c, "--a", a, "--b", a]


def _bad_json(tmp_path, monkeypatch):
    p = tmp_path / "nonsense.json"
    p.write_text("{")
    return ["anchor", "--curve", str(p), "--a", str(p)]


@pytest.mark.parametrize(
    "make_argv, code, keys",
    [
        (_method_mismatch, 1, {"error", "groupoid", "cantor"}),
        (_failed_internal_check, 1, {"error", "detail"}),
        (_doubling, 3, {"error", "detail", "stage", "fallback"}),
        (_bad_json, 2, {"error", "detail"}),
    ],
    ids=["failure", "internal-check", "degenerate", "usage"],
)
def test_each_exit_prints_one_document(tmp_path, capsys, monkeypatch, make_argv, code, keys):
    """`cli.run`'s four error exits: a failure document exits 1 as it is
    built; an internal check exits 1 and a usage error 2, both with
    {error, detail}; a degenerate configuration exits 3 and adds the
    stage and the fallback.  Each prints one JSON document on stderr
    (json.loads refuses a second) and nothing on stdout."""
    assert run(make_argv(tmp_path, monkeypatch)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert set(json.loads(err)) == keys


@pytest.mark.parametrize(
    "argv",
    [
        ["add", "--a", "a.json", "--b", "b.json"],
        ["invert", "--a", "a.json"],
        ["anchor", "--a", "a.json"],
        ["random-point"],
        ["cantor-add", "--a", "a.json", "--b", "b.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_curve_is_required_where_a_command_reads_one(argv, capsys):
    """Every command but verify loads its curve file, and argparse
    refuses it without --curve (exit 2) before any handler runs, so no
    handler needs a guard of its own."""
    assert run(argv) == 2
    assert "--curve" in capsys.readouterr().err


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


@pytest.mark.parametrize("method", ["groupoid", "cantor", "both"])
def test_add_tests_each_input_once(method, tmp_path, capsys, monkeypatch):
    """Every method transports each input once through to_mumford, the
    one membership test, and an off-curve input is an AnchorMismatch."""
    c, a, b = setup_worked(tmp_path)
    seen = []

    def counted(point, curve):
        seen.append(point)
        return to_mumford(point, curve)

    monkeypatch.setattr(cli, "to_mumford", counted)
    assert run(["add", "--curve", c, "--a", a, "--b", b, "--method", method]) == 0
    capsys.readouterr()
    assert seen == [A1, A2]
    bad = write(tmp_path, "bad.json", point_to_json(GroupoidPoint(qs(0), qs(2), qs(0))))
    assert run(["add", "--curve", c, "--a", a, "--b", bad, "--method", method]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "AnchorMismatch"


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



@pytest.mark.parametrize(
    "command, bad, name",
    [
        ("cantor-add", [1, 2], "divisor"),
        ("cantor-add", {"u": 5, "v": ["2"]}, "u"),
        ("cantor-add", {"u": ["1"], "v": "2"}, "v"),
        ("add", {"p_even": 5}, "p_even"),
        ("add", [1], "point"),
    ],
)
def test_json_of_the_wrong_shape_exits_2(tmp_path, capsys, command, bad, name):
    """A divisor or point file of the wrong shape is a usage error whose
    detail names the bad field, not a TypeError traceback."""
    c, good, _ = setup_worked(tmp_path)
    if command == "cantor-add":
        good = write(tmp_path, "d.json", {"u": ["-2", "1"], "v": ["3"]})
    code = run([command, "--curve", c, "--a", write(tmp_path, "bad.json", bad), "--b", good])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "ValueError" and re.search(rf"\b{name}\b", err["detail"])


@pytest.mark.parametrize(
    "curve, extra, name",
    [
        ([1], [], "curve"),
        ([1], ["--field", "q"], "curve"),
        ({"genus": 1, "field": 5, "lambda": ["0", "1"]}, [], "field"),
        ({"genus": 1, "field": "q", "lambda": 3}, [], "lambda"),
    ],
)
def test_curve_json_of_the_wrong_shape_exits_2(tmp_path, capsys, curve, extra, name):
    _, a, b = setup_worked(tmp_path)
    c = write(tmp_path, "bad.json", curve)
    code = run(["add", "--curve", c, *extra, "--a", a, "--b", b])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "ValueError" and re.search(rf"\b{name}\b", err["detail"])

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


def test_random_point_on_a_genus_20_q_template(tmp_path, capsys):
    """A genus-20 Q template needs 20 distinct abscissas, more than the
    19 ints of [-9, 9]; the point printed lies on the curve printed."""
    template = CurveParams(20, qs(*range(20)), qs(*range(1, 21)))
    c = write(tmp_path, "g20.json", curve_to_json(template))
    assert run(["random-point", "--curve", c, "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    fitted = curve_from_json(doc["curve"])
    assert fitted.genus == 20 and fitted.lambda2 == template.lambda2
    assert to_mumford(point_from_json(Q, doc["point"]), fitted).u.degree == 20


def test_random_point_on_a_bool_genus_exits_2(tmp_path, capsys):
    """JSON true is not the genus 1, as it is not the scalar 1."""
    c = write(tmp_path, "bool.json", {"genus": True, "field": "fp:10007", "lambda": [3, 7]})
    assert run(["random-point", "--curve", c, "--seed", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError" and "genus" in err["detail"]


def test_random_point_on_a_curve_with_too_few_points_exits_2(tmp_path, capsys):
    F5 = make_field("fp", 5)
    # f = x^5 + 2x^3 takes a square value on F_5 only at x = 0
    curve = CurveParams(2, [F5.zero(), F5.zero()], [F5.zero(), F5.scalar(2)])
    c = write(tmp_path, "few.json", curve_to_json(curve))
    assert run(["random-point", "--curve", c, "--seed", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "TooFewPoints"


def test_verify_small_prime_finishes(tmp_path):
    """Some genus-2 curves over F_5 have fewer than 2 abscissas with a
    square f(x); verify counts them as skips.  The run is a subprocess
    with a timeout, so a sampler that loops fails here instead of
    stalling the suite."""
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    argv = ["verify", "--field", "fp:5", "--genus", "2", "--trials", "12", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "hypadd", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    skips = [p["skipped_by_reason"].get("TooFewPoints", 0) for p in report["props"].values()]
    assert sum(skips) > 0


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


def test_verify_counts_skips_by_reason(capsys):
    """Over F_13 at genus 2 star refuses often; each property's skips are
    counted by the refusing stage, and the counts sum to `skipped`."""
    argv = ["verify", "--field", "fp:13", "--genus", "2", "--trials", "10", "--seed", "1"]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    seen = set()
    for prop in report["props"].values():
        assert sum(prop["skipped_by_reason"].values()) == prop["skipped"]
        seen |= set(prop["skipped_by_reason"])
    assert {"h_solve", "odd_recovery", "slope_den"} <= seen


def test_verify_skip_reason_without_a_stage(monkeypatch, capsys):
    def non_generic(*_):
        raise NonGenericDivisor("patched")

    def no_stage(*_):
        raise DegenerateConfiguration("patched")

    monkeypatch.setattr(cli, "from_mumford", non_generic)
    monkeypatch.setattr(cli.closedform, "g2_add", no_stage)
    argv = [
        "verify", "--field", "fp:10007", "--genus", "2", "--trials", "3",
        "--seed", "4", "--props", "oracle,closedform",
    ]
    assert run(argv) == 1
    props = json.loads(capsys.readouterr().out)["props"]
    # star answered, so a non-generic Cantor sum contradicts it: a failure
    assert props["oracle"]["failures"] == 3
    assert props["oracle"]["skipped_by_reason"] == {}
    assert props["closedform"]["skipped_by_reason"] == {"DegenerateConfiguration": 3}


def test_verify_fp_without_curve(capsys):
    argv = [
        "verify", "--field", "fp:10007", "--genus", "2", "--trials", "3",
        "--seed", "2", "--props", "assoc,rank,grading,pgg",
    ]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["genus"] == 2


def test_verify_q_assoc_answers_trials(capsys):
    """Over Q the third point is b - a, so neither side of the
    associativity check doubles a point, and trials are answered."""
    for genus in (1, 2):
        argv = [
            "verify", "--field", "q", "--genus", str(genus), "--trials", "5",
            "--seed", "1", "--props", "assoc",
        ]
        assert run(argv) == 0
        assoc = json.loads(capsys.readouterr().out)["props"]["assoc"]
        assert assoc["failures"] == 0
        assert assoc["passes"] > 0, assoc


def test_verify_q_assoc_takes_b_minus_a_as_its_third_point(monkeypatch):
    """Over Q the assoc check's third point d is star(invert(a), b), and
    both sides of (a * b) * d = a * (b * d) are computed from it."""
    calls, real = [], cli.star

    def recorded(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(cli, "star", recorded)
    for genus in (1, 2):
        rng = seeded(f"assoc-third-point:{genus}")
        c, a, b = q_pair(genus, rng)
        calls.clear()
        assert cli.KNOWN_PROPS["assoc"](c, a, b, rng)
        d, ab = real(invert(a), b), real(a, b)
        assert calls == [(invert(a), b), (a, b), (ab, d), (b, d), (a, real(b, d))]


def test_verify_q_past_genus_9(capsys):
    """Over Q a genus-10 pair needs 20 distinct abscissas, more than the
    19 ints of [-9, 9]; verify samples them and answers every property."""
    argv = ["verify", "--field", "q", "--genus", "10", "--trials", "1"]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    answered = {k for k, v in report["props"].items() if v.get("passes") == 1}
    assert answered == set(cli.KNOWN_PROPS) - {"closedform"}


def test_verify_q_grading_draws_a_rational_scale(capsys, monkeypatch):
    """Over Q the grading scale is a nonzero int of [-9, 9], and the
    graded product is the product of the graded points."""
    scales = []
    real = cli._nonzero_scale

    def counted(field, rng):
        scales.append(real(field, rng))
        return scales[-1]

    monkeypatch.setattr(cli, "_nonzero_scale", counted)
    argv = ["verify", "--field", "q", "--genus", "2", "--trials", "4", "--props", "grading"]
    assert run(argv) == 0
    grading = json.loads(capsys.readouterr().out)["props"]["grading"]
    assert grading["passes"] == len(scales) > 0 and grading["failures"] == 0
    assert all(s.field == Q and s.value.denominator == 1 and 0 < abs(s.value) <= 9 for s in scales)


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


@pytest.mark.parametrize("props", [",", "", " , "])
def test_verify_no_prop_exits_2(props, capsys):
    """A --props list that names no property checks nothing, so it is a
    usage error rather than a passing report."""
    code = run(["verify", "--field", "q", "--genus", "1", "--trials", "1", "--props", props])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_verify_runs_a_repeated_prop_once(monkeypatch, capsys):
    """A repeated name runs its property once, in the order of its first
    occurrence, and reports it once."""
    ran, real = [], cli._run_prop

    def counted(prop, *rest):
        ran.append(prop)
        return real(prop, *rest)

    monkeypatch.setattr(cli, "_run_prop", counted)
    argv = ["verify", "--field", "q", "--genus", "1", "--trials", "1"]
    assert run(argv + ["--props", "inverse,comm,inverse, comm"]) == 0
    assert ran == ["inverse", "comm"]
    assert sorted(json.loads(capsys.readouterr().out)["props"]) == ["comm", "inverse"]


def test_uncertified_modulus_exits_2(capsys):
    code = run(["verify", "--field", f"fp:{2**89 - 1}", "--genus", "1", "--trials", "1"])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "UncertifiedModulus"


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


def test_zero_denominator_exits_2(tmp_path, capsys):
    c = write(tmp_path, "curve.json", CURVE_OBJ)
    for field, text in (("q", "1/0"), ("fp:7", "1/0"), ("fp:7", "1/7")):
        a = write(tmp_path, "a.json", {"p_even": [text], "p_odd": ["3"], "z": ["0"]})
        code = run(["anchor", "--curve", c, "--field", field, "--a", a])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "ValueError" and text in err["detail"]


def test_genus_help_names_the_curve_file(capsys):
    cases = (
        ("add", "must match the curve file's genus"),
        ("verify", "genus when no curve file is given"),
    )
    for command, wanted in cases:
        assert run([command, "--help"]) == 0
        assert wanted in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "field, genus, trials",
    [("fp:10007", "0", "1"), ("q", "0", "1"), ("fp:10007", "1", "0"), ("q", "1", "-1")],
)
def test_verify_rejects_genus_or_trials_below_one(field, genus, trials, capsys):
    """verify needs a genus and a trial count of at least 1: below that
    it exits 2 with a JSON error, not a traceback or an empty green report."""
    code = run(["verify", "--field", field, "--genus", genus, "--trials", trials])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ValueError"


@pytest.mark.parametrize("field", ["q", "fp:10007"])
@pytest.mark.parametrize("genus", ["0", "-1"])
def test_verify_names_a_genus_below_one(field, genus, capsys):
    """verify refuses a genus below 1 up front, over Q as over F_p, with
    a detail that names the given value, not a sampler's own error."""
    code = run(["verify", "--field", field, "--genus", genus, "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["detail"] == f"--genus must be at least 1, got {genus}"


def _shifted(point, block):
    """point with the last entry of its p_even or p_odd block plus 1."""
    vectors = {"p_even": point.p_even, "p_odd": point.p_odd, "z": point.z}
    vectors[block] = vectors[block][:-1] + (vectors[block][-1] + 1,)
    return GroupoidPoint(**vectors)


def _plant(monkeypatch, prop):
    """Plant, for one verify property, a wrong answer that its law must catch."""
    real_star, real_detail, real_grade = cli.star, cli.identities.star_detail, cli.grade_scale

    def inverted(a, b):
        return invert(real_star(a, b))

    def by_order(a, b):
        first = dumps(point_to_json(a)) < dumps(point_to_json(b))
        return real_star(a, b) if first else inverted(a, b)

    def off_curve(a, b):
        return _shifted(real_star(a, b), "p_odd")

    graded = []

    def misscaled(a, c, t):
        # the grading check scales a, b and then their product: square t for the product
        graded.append(a)
        return real_grade(a, c, t * t if len(graded) % 3 == 0 else t)

    def wrong_p2(a1, a2):
        res = real_detail(a1, a2)
        return StarResult(_shifted(res.point, "p_even"), res.r)

    target, plant = {
        "assoc": ("star", inverted),
        "comm": ("star", by_order),
        "inverse": ("star", inverted),
        "anchor": ("star", off_curve),
        "rank": ("star", inverted),
        "grading": ("grade_scale", misscaled),
        "oracle": ("star", inverted),
        "pgg": ("star_detail", wrong_p2),
        "closedform": ("star", inverted),
    }[prop]
    monkeypatch.setattr(cli.identities if target == "star_detail" else cli, target, plant)


@pytest.mark.parametrize("prop", list(cli.KNOWN_PROPS))
def test_every_verify_property_can_fail(prop, monkeypatch, capsys):
    """Each entry of KNOWN_PROPS passes on the true law and, with a wrong
    answer planted that its law must catch, exits 1 with failures and a
    counterexample on stderr."""
    argv = [
        "verify", "--field", f"fp:{TEST_PRIME}", "--genus", "2", "--trials", "4",
        "--seed", "3", "--props", prop,
    ]
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["props"][prop]["failures"] == 0
    _plant(monkeypatch, prop)
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["props"][prop]["failures"] > 0
    examples = [json.loads(doc) for doc in re.split(r"(?m)^(?=\{$)", err) if doc]
    assert examples and all(e["prop"] == prop for e in examples)
