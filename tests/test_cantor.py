from collections import Counter
from itertools import product

import pytest

from hypadd import (
    CurveParams,
    GroupoidPoint,
    cantor,
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
    FieldMismatch,
    InvariantViolation,
    NonGenericDivisor,
    NonzeroRemainder,
    NotOnJacobian,
)
from hypadd.groupoid import _r_function, _solve_h_core, build_r_determinant
from hypadd.poly import Poly, _add
from hypadd.sampling import sqrt_mod
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


def test_from_mumford_rejects_an_invalid_divisor():
    """(x - 2, 4) has degree g on y^2 = x^3 + 1, but f(2) = 9, not 16."""
    with pytest.raises(NotOnJacobian):
        from_mumford(MumfordDivisor(qp(-2, 1), qp(4)), CURVE_G1)


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
        solve_route = _r_function(b1.field, *_solve_h_core(b1, b2))
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


def textbook_xgcd(a, b):
    """(d, s, t) with s a + t b = d monic: Euclid carrying both cofactors."""
    one, zero = Poly(a.field, [1]), Poly(a.field)
    r0, r1, s0, s1, t0, t1 = a, b, one, zero, zero, one
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1, s0, s1, t0, t1 = r1, r, s1, s0 - q * s1, t1, t0 - q * t1
    k = r0.lc().inverse()
    return r0 * k, s0 * k, t0 * k


def textbook_cantor(d1, d2, c):
    """Cantor's algorithm as printed, on Poly operators: two full extended
    gcds, the degree-3g composition numerator, then the reduction."""
    f = curve_poly(c)
    d, e1, e2 = textbook_xgcd(d1.u, d2.u)
    dd, c1, c2 = textbook_xgcd(d, d1.v + d2.v)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u = d1.u * d2.u // (dd * dd)
    v = (s1 * d1.u * d2.v + s2 * d2.u * d1.v + s3 * (d1.v * d2.v + f)) // dd % u
    while u.degree > c.genus:
        u = ((f - v * v) // u).monic()
        v = -v % u
    return MumfordDivisor(u, v)


def divisor_pool(c, p1, p2, torsion=None, p3=None):
    """The identity, p1, -p1, p2, the doubling 2 p1 and the sum p1 + p2
    (which shares abscissas with p1, -p1 and p2), plus, when given, a
    2-torsion point with its sum with p1, and p1 + p2 + p3; the sums by
    the textbook algorithm."""
    def add(a, b):
        return textbook_cantor(a, b, c)

    s12 = add(p1, p2)
    pool = [identity_divisor(c.field), p1, MumfordDivisor(p1.u, -p1.v % p1.u), p2]
    pool += [add(p1, p1), s12]
    if torsion is not None:
        pool += [torsion, add(p1, torsion)]
    if p3 is not None:
        pool.append(add(s12, p3))
    return pool


def reference_pools():
    """(curve, divisor pool) on small-prime curves at genus 1-3 whose f
    has the root 0, so (x, 0) is 2-torsion, and on Q curves."""
    rng = seeded("textbook")
    for p, g in product((7, 11, 13), (1, 2, 3)):
        field = make_field("fp", p)
        points = []
        while len(points) < 3:
            lam1 = (field.zero(),) + tuple(field.scalar(rng.randrange(p)) for _ in range(g - 1))
            c = CurveParams(g, lam1, tuple(field.scalar(rng.randrange(p)) for _ in range(g)))
            ys = [(x, sqrt_mod(curve_poly(c)(field.scalar(x)).value, p)) for x in range(1, p)]
            points = [MumfordDivisor(Poly(field, [-x, 1]), Poly(field, [y])) for x, y in ys if y]
        torsion = MumfordDivisor(Poly(field, [0, 1]), Poly(field))
        yield c, divisor_pool(c, *points[:2], torsion, points[2] if g == 3 else None)
    points = ((2, 3), (0, 1), (-1, 0))  # on y^2 = x^3 + 1; (-1, 0) is 2-torsion
    a, b, t = (to_mumford(GroupoidPoint(qs(x), qs(y), qs(0)), CURVE_G1) for x, y in points)
    yield CURVE_G1, divisor_pool(CURVE_G1, a, b, t)
    for g in (2, 3):
        c, a, b = q_pair(g, rng)
        yield c, divisor_pool(c, to_mumford(a, c), to_mumford(b, c))


def test_cantor_add_matches_the_textbook_algorithm():
    """All ordered pairs from each pool: identities, negatives, doublings,
    2-torsion points and sums sharing abscissas."""
    for c, pool in reference_pools():
        for d1, d2 in product(pool, repeat=2):
            assert cantor_add(d1, d2, c) == textbook_cantor(d1, d2, c)


def test_cantor_boxes_only_its_answer(monkeypatch):
    """cantor_add works on kernel pairs from input to output: it runs no
    Poly arithmetic operator and builds no Poly, since its answer holds
    the pairs and boxes a Poly only when u or v is read."""
    cases = [(c, d1, d2) for c, pool in reference_pools() for d1, d2 in product(pool, repeat=2)]
    want = [cantor_add(d1, d2, c) for c, d1, d2 in cases]
    built, real_wrap, real_init = [], Poly._wrap.__func__, Poly.__init__

    def wrap(cls, *args):
        built.append(args)
        return real_wrap(cls, *args)

    def init(self, *args):
        built.append(args)
        real_init(self, *args)

    def refuse(*_):
        raise AssertionError("Poly arithmetic in cantor_add")

    monkeypatch.setattr(Poly, "_wrap", classmethod(wrap))
    monkeypatch.setattr(Poly, "__init__", init)
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__divmod__", "__neg__", "monic"):
        monkeypatch.setattr(Poly, name, refuse)
    for (c, d1, d2), res in zip(cases, want):
        built.clear()
        assert cantor_add(d1, d2, c) == res
        assert built == []


@pytest.mark.parametrize("curve_field", [Q, make_field("fp", 11)], ids=["q", "f11"])
def test_entry_points_refuse_a_divisor_over_another_field(curve_field):
    """(0, 1) lies on y^2 = x^3 + x + 1 over F_7, F_11 and Q alike, so on
    kernel pairs alone an F_7 divisor would pass for one of the curve's;
    each entry point compares fields first."""
    f7 = make_field("fp", 7)
    c = CurveParams(1, (curve_field.one(),), (curve_field.one(),))
    d = MumfordDivisor(Poly(f7, [0, 1]), Poly(f7, [1]))
    a = GroupoidPoint((f7.zero(),), (f7.one(),), (f7.one(),))
    calls = [
        lambda: cantor_add(d, d, c),
        lambda: cantor_add(identity_divisor(curve_field), d, c),
        lambda: cantor_neg(d, c),
        lambda: divisor_valid(d, c),
        lambda: from_mumford(d, c),
        lambda: to_mumford(a, c),
        lambda: MumfordDivisor(Poly(curve_field, [0, 1]), Poly(f7, [1])),
    ]
    for call in calls:
        with pytest.raises(FieldMismatch):
            call()
    assert divisor_valid(MumfordDivisor(Poly(curve_field, [0, 1]), Poly(curve_field, [1])), c)


def corrupt(monkeypatch, name, fix, call=None):
    """Pass the results of `name` in cantor's namespace through
    fix(args, result): every result, or only that of the given call."""
    real, calls = getattr(cantor, name), []

    def corrupted(*args):
        calls.append(args)
        out = real(*args)
        return fix(args, out) if call in (None, len(calls)) else out

    monkeypatch.setattr(cantor, name, corrupted)


def check_cases():
    """(c, d, -d, a generic divisor e) at genus 1-3 over F_10007 and Q."""
    rng = seeded("cantor-checks")
    for g in (1, 2, 3):
        for c, a, b in (fp_pair(P, g, rng), q_pair(g, rng)):
            d = to_mumford(a, c)
            yield c, d, cantor_neg(d, c), to_mumford(b, c)


def f_plus_one(c):
    """The curve y^2 = f + 1, on which no divisor valid on c lies."""
    return CurveParams(c.genus, (c.lambda1[0] + 1,) + c.lambda1[1:], c.lambda2)


def test_cantor_checks_that_dd_divides_u1_and_u2(monkeypatch):
    """d + (-d) has dd = u; a gcd of the wrong degree fails the division."""
    for c, d, neg, _ in check_cases():
        with monkeypatch.context() as m:
            corrupt(m, "xgcd", lambda args, out: (((0,) + out[0][0], out[0][1]), out[1]), 2)
            with pytest.raises(NonzeroRemainder, match="divide u1 and u2"):
                cantor_add(d, neg, c)


def test_cantor_checks_the_composition_cofactor(monkeypatch):
    """Doubling has d = u; s3 + 1 leaves dd - s3 (v1 + v2) prime to d."""
    for c, d, _, _ in check_cases():
        with monkeypatch.context() as m:
            corrupt(m, "xgcd", lambda args, out: (out[0], _add(*out[1], (1,), 1, args[-1])), 2)
            with pytest.raises(NonzeroRemainder, match="dd - s3"):
                cantor_add(d, d, c)


def test_cantor_checks_u1_divides_f_minus_v1_squared():
    """When gcd(u1, u2) != 1 each input is checked, reading (f - v1^2) / u1
    once: doubling on f + 1 raises NotOnJacobian."""
    for c, d, _, _ in check_cases():
        with pytest.raises(NotOnJacobian):
            cantor_add(d, d, f_plus_one(c))


def test_cantor_checks_inputs_at_the_first_reduction():
    """A coprime sum skips (f - v1^2) / u1; on f + 1 its first reduction
    division is the input check and raises NotOnJacobian."""
    for c, d, _, e in check_cases():
        with pytest.raises(NotOnJacobian):
            cantor_add(d, e, f_plus_one(c))


def test_cantor_checks_membership_during_reduction(monkeypatch):
    """A genus-3 generic sum reduces twice; a nonzero remainder in the
    second round is an internal fault: NonzeroRemainder."""
    for c, d, _, e in check_cases():
        if c.genus != 3:
            continue
        with monkeypatch.context() as m:
            corrupt(m, "_norm_quotient", lambda args, out: (out[0], ((1,), 1)), 2)
            with pytest.raises(NonzeroRemainder, match="membership"):
                cantor_add(d, e, c)


def test_cantor_add_refuses_an_invalid_divisor():
    """u | v^2 - f is checked on every path.  The identity plus (x - 2, 4)
    on y^2 = x^3 + 1 runs no reduction round, so the composed pair is
    checked; a genus-3 valid plus invalid coprime pair fails at the first
    reduction; a doubling or a pair sharing a root of u fails the check of
    each input."""
    bad = MumfordDivisor(qp(-2, 1), qp(4))
    cases = [(identity_divisor(Q), bad, CURVE_G1), (bad, identity_divisor(Q), CURVE_G1)]
    cases += [(bad, bad, CURVE_G1), (to_mumford(A1, CURVE_G1), bad, CURVE_G1)]
    c, a, b = q_pair(3, seeded("invalid-divisor"))
    d, e = to_mumford(a, c), to_mumford(b, c)
    wrong = MumfordDivisor(e.u, e.v + Poly(Q, [1]))
    cases += [(d, wrong, c), (wrong, d, c), (wrong, e, c), (e, wrong, c)]
    for d1, d2, curve in cases:
        assert not (divisor_valid(d1, curve) and divisor_valid(d2, curve))
        with pytest.raises(NotOnJacobian):
            cantor_add(d1, d2, curve)


def test_cantor_checks_that_reduction_terminates(monkeypatch):
    """A reduction whose quotient (f - v^2) / u comes back as u itself
    never lowers the degree: InvariantViolation after 2g + 2 rounds."""
    for c, d, _, e in check_cases():
        g = c.genus

        def stuck(args, out):
            if len(args[2]) > g + 1 and len(args[0]) >= len(args[2]):
                return (args[2], args[3]), ((), 1)
            return out

        with monkeypatch.context() as m:
            corrupt(m, "_divmod", stuck)
            with pytest.raises(InvariantViolation, match="terminate"):
                cantor_add(d, e, c)
