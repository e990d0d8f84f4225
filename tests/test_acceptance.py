"""Acceptance suite: the eleven exact criteria, one verdict line each.

Verdict lines are printed with capture disabled so they always reach the
terminal; run `pytest tests/test_acceptance.py -v` (add -s for the rest
of the output too).
"""

import random
import time

import pytest

from hypadd import (
    CurveParams,
    GroupoidPoint,
    anchor,
    cantor_add,
    divisor_valid,
    from_mumford,
    g1_add,
    g2_add,
    grade_scale,
    invert,
    make_field,
    rank_witness,
    star,
    star_detail,
    to_mumford,
    u_poly,
)
from hypadd.closedform import _g2_slope
from hypadd.errors import DegenerateConfiguration, NonGenericDivisor
from hypadd.groupoid import PointListRep, curve_from_anchor, phi_poly, viete_phi
from hypadd.identities import (
    check_g1_wp_prime_sum,
    check_pgg_sum,
    check_zp_consistency,
)
from hypadd.poly import Poly
from hypadd.sampling import random_curve_fp, sample_pair_q, sample_point_fp

P = make_field("fp", 10007)
Q = make_field("q")

ORACLE_GENERA = (1, 2, 3, 4)
ORACLE_PAIRS_PER_GENUS = 200
ORACLE_Q_PAIRS = 20


def _say(capsys, text):
    with capsys.disabled():
        print(f"\n{text}")


def _fp_curve_pair(genus, rng):
    c = random_curve_fp(P, genus, rng)
    return c, sample_point_fp(c, rng), sample_point_fp(c, rng)


def _fp_pair_retry(genus, rng, tries=60):
    for _ in range(tries):
        try:
            c, a1, a2 = _fp_curve_pair(genus, rng)
            return c, a1, a2
        except DegenerateConfiguration:
            continue
    raise RuntimeError("sampling kept failing")


def _q_pair_retry(genus, rng, tries=60):
    for _ in range(tries):
        try:
            return sample_pair_q(genus, rng)
        except DegenerateConfiguration:
            continue
    raise RuntimeError("sampling kept failing")


@pytest.fixture(scope="module")
def oracle_run():
    """Criterion 1 workhorse; criteria 3, 5 and 6 reuse its triples."""
    rng = random.Random("acceptance:oracle")
    triples = {g: [] for g in ORACLE_GENERA}
    skipped = 0
    anchors_ok = True
    start = time.time()
    for g in ORACLE_GENERA:
        while len(triples[g]) < ORACLE_PAIRS_PER_GENUS:
            c = random_curve_fp(P, g, rng)
            try:
                a1 = sample_point_fp(c, rng)
                a2 = sample_point_fp(c, rng)
                s = star(a1, a2)
                m = from_mumford(
                    cantor_add(to_mumford(a1, c), to_mumford(a2, c), c), c
                )
            except (DegenerateConfiguration, NonGenericDivisor):
                skipped += 1
                continue
            assert s == m, "star and the Cantor oracle disagree"
            anchors_ok = anchors_ok and anchor(s) == anchor(a1) == (
                c.lambda1,
                c.lambda2,
            )
            triples[g].append((c, a1, a2, s))
    q_checked = 0
    for g in (1, 2):
        done = 0
        while done < ORACLE_Q_PAIRS:
            try:
                c, a1, a2 = sample_pair_q(g, rng)
                s = star(a1, a2)
                m = from_mumford(
                    cantor_add(to_mumford(a1, c), to_mumford(a2, c), c), c
                )
            except (DegenerateConfiguration, NonGenericDivisor):
                skipped += 1
                continue
            assert s == m
            anchors_ok = anchors_ok and anchor(s) == anchor(a1)
            done += 1
            q_checked += 1
    elapsed = time.time() - start
    return {
        "triples": triples,
        "skipped": skipped,
        "anchors_ok": anchors_ok,
        "q_checked": q_checked,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def axiom_run():
    """Criterion 2 workhorse; criterion 3 reuses its anchor flag."""
    rng = random.Random("acceptance:axioms")
    anchors_ok = True
    assoc_done = 0
    for g in (1, 2, 3):
        done = 0
        while done < 100:
            c = random_curve_fp(P, g, rng)
            try:
                a = sample_point_fp(c, rng)
                b = sample_point_fp(c, rng)
                d = sample_point_fp(c, rng)
                lhs = star(star(a, b), d)
                rhs = star(a, star(b, d))
            except (DegenerateConfiguration, NonGenericDivisor):
                continue
            assert lhs == rhs, "associativity failed"
            anchors_ok = anchors_ok and anchor(lhs) == anchor(a)
            done += 1
            assoc_done += 1
    axiom2_done = 0
    while axiom2_done < 100:
        g = 1 + axiom2_done % 3
        try:
            c, a, b = _fp_curve_pair(g, rng)
            s = star(a, b)
            back = star(s, invert(b))
        except DegenerateConfiguration:
            continue
        assert back == a, "weak-inverse axiom failed"
        anchors_ok = anchors_ok and anchor(s) == anchor(a)
        axiom2_done += 1
    comm_done = 0
    while comm_done < 200:
        g = 1 + comm_done % 3
        try:
            c, a, b = _fp_curve_pair(g, rng)
            assert star(a, b) == star(b, a), "commutativity failed"
        except DegenerateConfiguration:
            continue
        comm_done += 1
    return {
        "anchors_ok": anchors_ok,
        "assoc": assoc_done,
        "axiom2": axiom2_done,
        "comm": comm_done,
    }


def test_criterion_1_oracle_equivalence(oracle_run, capsys):
    counts = {g: len(v) for g, v in oracle_run["triples"].items()}
    assert counts == {g: ORACLE_PAIRS_PER_GENUS for g in ORACLE_GENERA}
    assert oracle_run["q_checked"] == 2 * ORACLE_Q_PAIRS
    assert oracle_run["elapsed"] < 60
    _say(
        capsys,
        "ACCEPTANCE 1 PASS: star == Cantor transport on "
        f"{sum(counts.values())} F_10007 pairs (g=1..4) and "
        f"{oracle_run['q_checked']} Q pairs; "
        f"{oracle_run['skipped']} degenerate samples skipped; "
        f"{oracle_run['elapsed']:.1f}s < 60s",
    )


def test_criterion_2_groupoid_axioms(axiom_run, capsys):
    assert axiom_run["assoc"] == 300
    assert axiom_run["axiom2"] == 100
    assert axiom_run["comm"] == 200
    _say(
        capsys,
        "ACCEPTANCE 2 PASS: associativity on 300 triples (100 per genus <= 3), "
        "weak inverse on 100 pairs, commutativity on 200 pairs, all exact",
    )


def test_criterion_3_anchor_invariance(oracle_run, axiom_run, capsys):
    assert oracle_run["anchors_ok"]
    assert axiom_run["anchors_ok"]
    _say(
        capsys,
        "ACCEPTANCE 3 PASS: anchor(star(a,b)) == anchor(a) on every pair "
        "sampled in criteria 1 and 2",
    )


def test_criterion_4_dual_r_construction(capsys):
    from hypadd.groupoid import _r_function, _solve_h_core, build_r_determinant

    rng = random.Random("acceptance:dual-r")
    total = 0
    for g in (1, 2, 3):
        done = 0
        while done < 100:
            try:
                c, a1, a2 = _fp_curve_pair(g, rng)
                b1, b2 = invert(a1), invert(a2)
                solve_route = _r_function(b1.field, *_solve_h_core(b1, b2))
            except DegenerateConfiguration:
                continue
            det_route = build_r_determinant(b1, b2)
            assert det_route.h == solve_route.h, "R routes disagree"
            done += 1
            total += 1
    _say(
        capsys,
        f"ACCEPTANCE 4 PASS: determinant route == linear-solve route for R "
        f"on {total} pairs (100 per genus <= 3), exact",
    )


def test_criterion_5_division_invariant(oracle_run, capsys):
    checked = 0
    for g, rows in oracle_run["triples"].items():
        for c, a1, a2, s in rows[:10]:
            r = star_detail(a1, a2).r
            phi = phi_poly(r, c)
            q, rem = divmod(phi, u_poly(a1) * u_poly(a2))
            assert rem.is_zero(), "nonzero remainder"
            assert q.is_monic() and q.degree == g, "quotient shape"
            assert u_poly(s) == q
            checked += 1
    _say(
        capsys,
        "ACCEPTANCE 5 PASS: zero remainder and monic degree-g quotient "
        f"re-verified explicitly on {checked} triples; every star call in "
        "criteria 1-4 asserts the same invariant internally",
    )


def test_criterion_6_rank_condition(oracle_run, capsys):
    total = 0
    for g, rows in oracle_run["triples"].items():
        for c, a1, a2, s in rows:
            assert rank_witness(a1, a2, s), "rank witness failed"
            total += 1
    _say(
        capsys,
        f"ACCEPTANCE 6 PASS: stacked system rank < 2g+1 on all {total} "
        "criterion-1 triples",
    )


def test_criterion_7_closed_forms(capsys):
    rng = random.Random("acceptance:closed")
    a1 = GroupoidPoint((Q.scalar(2),), (Q.scalar(3),), (Q.scalar(0),))
    a2 = GroupoidPoint((Q.scalar(0),), (Q.scalar(1),), (Q.scalar(0),))
    want = GroupoidPoint((Q.scalar(-1),), (Q.scalar(0),), (Q.scalar(0),))
    assert g1_add(a1, a2) == want == star(a1, a2)
    g1_done = 0
    while g1_done < 200:
        try:
            c, b1, b2 = _fp_curve_pair(1, rng)
            assert g1_add(b1, b2) == star(b1, b2), "g1 closed form mismatch"
        except DegenerateConfiguration:
            continue
        g1_done += 1
    g2_fp = 0
    while g2_fp < 50:
        try:
            c, b1, b2 = _fp_curve_pair(2, rng)
            assert g2_add(b1, b2) == star(b1, b2), "g2 closed form mismatch"
        except DegenerateConfiguration:
            continue
        g2_fp += 1
    g2_q = 0
    while g2_q < 10:
        try:
            c, b1, b2 = sample_pair_q(2, rng)
            assert g2_add(b1, b2) == star(b1, b2), "g2 closed form mismatch"
        except DegenerateConfiguration:
            continue
        g2_q += 1
    _say(
        capsys,
        "ACCEPTANCE 7 PASS: g1_add == star on 200 pairs (worked example "
        "included); g2_add == star on 50 F_10007 pairs and 10 Q pairs",
    )


def test_criterion_8_operator_identities(capsys):
    """L = 1/2 [(u3 - v3)(d/du2 - d/dv2) + (u5 - v5)(d/du4 - d/dv4)] has
    coefficients that it does not differentiate, so at a point p it is
    d/dt at t = 0 along p + t*d, with d(u2) = -d(v2) = (u3 - v3)/2 and
    d(u4) = -d(v4) = (u5 - v5)/2: L^k F(p) is k! times the t^k
    coefficient of F(p + t*d).  Tangency is a zero t-coefficient of the
    singular set.  The slope's denominator must be constant in t, so
    L(h'') = L^3(num)/den, which vanishes with num's t^3 coefficient."""
    rng = random.Random("acceptance:operator")
    half = P.scalar(1) / P.scalar(2)
    names = ("u2", "u3", "u4", "u5", "v2", "v3", "v4", "v5")
    done = 0
    while done < 100:
        env = {n: P.scalar(rng.randrange(10007)) for n in names}
        c2, c4 = half * (env["u3"] - env["v3"]), half * (env["u5"] - env["v5"])
        motion = {"u2": c2, "v2": -c2, "u4": c4, "v4": -c4}
        u2, u3, u4, u5, v2, v3, v4, v5 = (
            Poly(P, (env[n], motion.get(n, P.zero()))) for n in names
        )
        singular_set = (u2 - v2) * (u5 - v5) - (u3 - v3) * (u4 - v4)
        assert singular_set[1] == P.zero(), "tangency identity failed"
        num, den = _g2_slope(u2, u3, u4, u5, v2, v3, v4, v5)
        if den[0] == P.zero():
            continue
        assert den.degree == 0, "slope denominator moves along L"
        assert num[3] == P.zero(), "L(h'') != 0"
        done += 1
    _say(
        capsys,
        "ACCEPTANCE 8 PASS: tangency identity and L(h'') == 0 hold at 100 "
        "random points over F_10007",
    )


def test_criterion_9_p_identities(capsys):
    rng = random.Random("acceptance:identities")
    pgg_done = 0
    for g in (1, 2, 3):
        done = 0
        while done < 100:
            try:
                c, a, b = _fp_curve_pair(g, rng)
                assert check_pgg_sum(a, b), "pgg sum identity failed"
            except DegenerateConfiguration:
                continue
            done += 1
            pgg_done += 1
    wp_done = 0
    while wp_done < 100:
        try:
            c, a, b = _fp_curve_pair(1, rng)
            assert check_g1_wp_prime_sum(a, b), "wp-prime identity failed"
        except DegenerateConfiguration:
            continue
        wp_done += 1
    zp_done = 0
    while zp_done < 50:
        try:
            c, a, b = _fp_curve_pair(2, rng)
            assert check_zp_consistency(a, b), "genus-2 pgg rule or p3 against g2_add failed"
        except DegenerateConfiguration:
            continue
        zp_done += 1
    _say(
        capsys,
        "ACCEPTANCE 9 PASS: pgg sum on 300 pairs (100 per genus 1-3), "
        "genus-1 wp-prime sum on 100 pairs, genus-2 pgg rule and p3 against "
        "g2_add on 50 pairs, all exact",
    )


def test_criterion_10_grading_equivariance(capsys):
    rng = random.Random("acceptance:grading")
    total = 0
    for g in (1, 2, 3):
        done = 0
        while done < 50:
            try:
                c, a, b = _fp_curve_pair(g, rng)
                s = star(a, b)
            except DegenerateConfiguration:
                continue
            t = P.scalar(rng.randrange(1, 10007))
            ga, gc = grade_scale(a, c, t)
            gb, _ = grade_scale(b, c, t)
            gs, _ = grade_scale(s, c, t)
            assert star(ga, gb) == gs, "grading equivariance failed"
            assert anchor(ga) == (gc.lambda1, gc.lambda2)
            done += 1
            total += 1
    _say(
        capsys,
        f"ACCEPTANCE 10 PASS: star(grade a, grade b) == grade(star(a, b)) "
        f"on {total} pairs (50 per genus <= 3), random nonzero t",
    )


def test_criterion_11_degenerate_handling(capsys):
    # genus 1 doubling
    a = GroupoidPoint((Q.scalar(2),), (Q.scalar(3),), (Q.scalar(0),))
    c1 = curve_from_anchor(1, *anchor(a))
    with pytest.raises(DegenerateConfiguration):
        star(a, a)
    d = to_mumford(a, c1)
    dbl = cantor_add(d, d, c1)
    assert divisor_valid(dbl, c1)
    assert from_mumford(dbl, c1) == GroupoidPoint(
        (Q.scalar(0),), (Q.scalar(1),), (Q.scalar(0),)
    )
    # genus 1 shared u: the pair is necessarily opposite, so the Cantor
    # path lands on the identity divisor (no groupoid image exists)
    neg = invert(a)
    with pytest.raises(DegenerateConfiguration):
        star(a, neg)
    ident = cantor_add(d, to_mumford(neg, c1), c1)
    assert ident.u == Poly(Q, (Q.one(),)) and ident.v.is_zero()
    # genus 2 doubling
    rng = random.Random("acceptance:degenerate")
    c2, b, _ = _q_pair_retry(2, rng)
    with pytest.raises(DegenerateConfiguration):
        star(b, b)
    db = to_mumford(b, c2)
    dbl2 = cantor_add(db, db, c2)
    assert divisor_valid(dbl2, c2)
    assert from_mumford(dbl2, c2).genus == 2
    # genus 2 shared u, distinct v: the sum is twice the common point
    xs = (Q.scalar(1), Q.scalar(3))
    ys = (Q.scalar(2), Q.scalar(5))
    t1 = PointListRep(tuple(zip(xs, ys)), (Q.zero(), Q.zero()))
    t2 = PointListRep(((xs[0], -ys[0]), (xs[1], ys[1])), (Q.zero(), Q.zero()))
    b1, b2 = viete_phi(t1), viete_phi(t2)
    assert b1.p_even == b2.p_even
    with pytest.raises(DegenerateConfiguration):
        star(b1, b2)
    cs = curve_from_anchor(2, *anchor(b1))
    ds = cantor_add(to_mumford(b1, cs), to_mumford(b2, cs), cs)
    assert divisor_valid(ds, cs)
    assert ds.u == Poly(Q, (Q.scalar(9), Q.scalar(-6), Q.one()))  # (x-3)^2
    assert ds.v(Q.scalar(3)) == Q.scalar(5)
    assert from_mumford(ds, cs).p_even == (-Q.scalar(9), Q.scalar(6))
    _say(
        capsys,
        "ACCEPTANCE 11 PASS: doubling and shared-u configurations raise "
        "DegenerateConfiguration from star and succeed through the Cantor "
        "path for genus 1 and 2 (genus-1 shared-u lands on the identity "
        "divisor)",
    )
