from collections import Counter
from itertools import product

import pytest

from hypadd import (
    CurveParams,
    GroupoidPoint,
    cantor_add,
    cantor_neg,
    curve_poly,
    divisor_valid,
    from_mumford,
    identity_divisor,
    invert,
    make_field,
    star,
    to_mumford,
)
from hypadd.cantor import MumfordDivisor
from hypadd.errors import (
    DegenerateConfiguration,
    NonGenericDivisor,
    NotOnJacobian,
)
from hypadd.groupoid import build_r_determinant, build_r_from_h, solve_h
from hypadd.poly import Poly
from tests.conftest import TEST_PRIME, fp_pair, q_pair, seeded

Q = make_field("q")
P = make_field("fp", TEST_PRIME)


def qs(*vals):
    return tuple(Q.scalar(v) for v in vals)


def qp(*coeffs):
    return Poly(Q, qs(*coeffs))


CURVE_G1 = CurveParams(1, qs(1), qs(0))  # y^2 = x^3 + 1
A1 = GroupoidPoint(qs(2), qs(3), qs(0))
A2 = GroupoidPoint(qs(0), qs(1), qs(0))


def chord_law(c, x1, y1, x2, y2):
    """Independent genus-1 oracle: textbook chord addition on
    y^2 = x^3 + lam4 x + lam6, followed by the hyperelliptic flip."""
    lam = (x2 - x1).inverse() * (y2 - y1) if x1 != x2 else None
    assert lam is not None
    x3 = lam * lam - x1 - x2
    y3 = -(y1 + lam * (x3 - x1))
    return x3, y3


def test_to_mumford_worked():
    d = to_mumford(A1, CURVE_G1)
    assert d.u == qp(-2, 1)
    assert d.v == qp(3)


def test_to_mumford_rejects_off_curve():
    bad = GroupoidPoint(qs(2), qs(4), qs(0))
    with pytest.raises(NotOnJacobian):
        to_mumford(bad, CURVE_G1)


def test_to_mumford_rejects_z_mismatch():
    other = CurveParams(1, qs(1), qs(5))
    with pytest.raises(NotOnJacobian):
        to_mumford(A1, other)


def test_from_mumford_round_trip():
    rng = seeded("mumford-rt")
    for g in (1, 2, 3):
        c, a, _ = q_pair(g, rng)
        assert from_mumford(to_mumford(a, c), c) == a


def test_from_mumford_rejects_subgeneric():
    with pytest.raises(NonGenericDivisor):
        from_mumford(identity_divisor(Q), CURVE_G1)


def test_identity_divisor_is_neutral():
    d = to_mumford(A1, CURVE_G1)
    e = identity_divisor(Q)
    assert cantor_add(d, e, CURVE_G1) == d
    assert cantor_add(e, d, CURVE_G1) == d


def test_neg_gives_identity():
    d = to_mumford(A1, CURVE_G1)
    assert cantor_add(d, cantor_neg(d, CURVE_G1), CURVE_G1) == identity_divisor(Q)


def test_cantor_matches_chord_law():
    x3, v3 = chord_law(CURVE_G1, *qs(2, 3, 0, 1))
    d = cantor_add(to_mumford(A1, CURVE_G1), to_mumford(A2, CURVE_G1), CURVE_G1)
    assert d.u == Poly(Q, (-x3, Q.one()))
    assert d.v == Poly(Q, (v3,))
    # and the groupoid product agrees
    assert from_mumford(d, CURVE_G1) == star(A1, A2)


def test_cantor_commutes_and_associates():
    rng = seeded("cantor-axioms")
    for g in (1, 2):
        c, a1, a2 = q_pair(g, rng)
        d1, d2 = to_mumford(a1, c), to_mumford(a2, c)
        assert cantor_add(d1, d2, c) == cantor_add(d2, d1, c)
        d3 = cantor_add(d1, d2, c)
        lhs = cantor_add(cantor_add(d1, d2, c), cantor_neg(d2, c), c)
        assert lhs == d1
        assert divisor_valid(d3, c)


def test_cantor_doubling():
    d = to_mumford(A1, CURVE_G1)
    dbl = cantor_add(d, d, CURVE_G1)
    assert divisor_valid(dbl, CURVE_G1)
    # tangent-line doubling of (2,3): lam = (3*4)/(2*3) = 2,
    # x3 = 4 - 4 = 0, y3 = -(3 + 2*(0-2)) = 1
    assert dbl.u == qp(0, 1)
    assert dbl.v == qp(1)
    assert from_mumford(dbl, CURVE_G1) == A2


def test_divisor_valid():
    d = to_mumford(A1, CURVE_G1)
    assert divisor_valid(d, CURVE_G1)
    bad = MumfordDivisor(d.u, d.v + Poly(Q, (Q.one(),)))
    assert not divisor_valid(bad, CURVE_G1)


def test_master_oracle_q():
    rng = seeded("oracle-q")
    for g in (1, 2, 3):
        done = 0
        while done < 5:
            try:
                c, a1, a2 = q_pair(g, rng)
                s = star(a1, a2)
                m = from_mumford(
                    cantor_add(to_mumford(a1, c), to_mumford(a2, c), c), c
                )
            except (DegenerateConfiguration, NonGenericDivisor):
                continue
            assert s == m
            done += 1


def test_master_oracle_fp():
    rng = seeded("oracle-fp")
    for g in (1, 2, 3, 4):
        done = 0
        while done < 10:
            try:
                c, a1, a2 = fp_pair(P, g, rng)
                s = star(a1, a2)
                m = from_mumford(
                    cantor_add(to_mumford(a1, c), to_mumford(a2, c), c), c
                )
            except (DegenerateConfiguration, NonGenericDivisor):
                continue
            assert s == m
            done += 1


def curve_points(c):
    """Every point of c: each (u, v) with u monic of degree g, deg v < g
    and u | v^2 - f."""
    field, g = c.field, c.genus
    f = curve_poly(c)
    vectors = list(product(range(field.modulus), repeat=g))
    points = []
    for uc in vectors:
        u = Poly(field, uc + (1,))
        for vc in vectors:
            v = Poly(field, vc)
            if ((v * v - f) % u).is_zero():
                points.append(from_mumford(MumfordDivisor(u, v), c))
    return points


def r_routes_agree(a, b):
    """The bordered-determinant route and the h-solve route give the same
    RFunction on the inverted pair, or both refuse."""
    b1, b2 = invert(a), invert(b)
    try:
        det_route = build_r_determinant(b1, b2)
    except DegenerateConfiguration:
        det_route = None
    try:
        solve_route = build_r_from_h(*solve_h(b1, b2), a.genus)
    except DegenerateConfiguration:
        solve_route = None
    return det_route == solve_route


def exhaustive_outcomes(g, p):
    """(answered, refused, refusals per stage) of star over every ordered
    pair of points on the curve with every lambda set to 1, each answer
    checked against Cantor and each pair's two R routes checked against
    each other; any other exception propagates."""
    field = make_field("fp", p)
    c = CurveParams(g, (field.one(),) * g, (field.one(),) * g)
    points = curve_points(c)
    answered = refused = 0
    stages = Counter()
    for a in points:
        for b in points:
            assert r_routes_agree(a, b)
            try:
                want = from_mumford(cantor_add(to_mumford(a, c), to_mumford(b, c), c), c)
            except NonGenericDivisor:
                want = None
            try:
                got = star(a, b)
            except DegenerateConfiguration as exc:
                refused += 1
                stages[exc.stage] += 1
                continue
            assert got == want
            answered += 1
    return answered, refused, dict(stages)


# (answered, refused) per (g, p) on the curve with every lambda set to 1.
EXHAUSTIVE_OUTCOMES = {
    (1, 3): (4, 5),
    (1, 5): (48, 16),
    (1, 7): (8, 8),
    (1, 11): (144, 25),
    (2, 3): (8, 17),
    (2, 5): (432, 244),
    (2, 7): (484, 92),
}

# Refusals per stage on the same curves.  The bordered determinant is
# singular exactly when the h-solve is, and the h-solve runs first, so
# "det_lead" never appears.
EXHAUSTIVE_STAGES = {
    (1, 3): {"h_solve": 5},
    (1, 5): {"h_solve": 16},
    (1, 7): {"h_solve": 8},
    (1, 11): {"h_solve": 25},
    (2, 3): {"h_solve": 17},
    (2, 5): {"h_solve": 204, "odd_recovery": 40},
    (2, 7): {"h_solve": 92},
}


@pytest.mark.parametrize("g, p", list(EXHAUSTIVE_OUTCOMES))
def test_star_matches_cantor_exhaustively(g, p):
    """star equals Cantor or raises DegenerateConfiguration, with the
    (answered, refused) counts and the refusals per stage pinned.
    Doubling, shared roots of u1 and u2, sub-generic sums and (at g = 2,
    p = 5) a non-invertible r1 mod u3 all occur here."""
    answered, refused, stages = exhaustive_outcomes(g, p)
    assert (answered, refused) == EXHAUSTIVE_OUTCOMES[g, p]
    assert None not in stages
    assert stages == EXHAUSTIVE_STAGES[g, p]


def test_opposite_points_sum_to_identity():
    """P + (-P) through Cantor lands on the identity divisor, which has
    no groupoid image."""
    d1 = to_mumford(A1, CURVE_G1)
    d2 = to_mumford(invert(A1), CURVE_G1)
    assert cantor_add(d1, d2, CURVE_G1) == identity_divisor(Q)
