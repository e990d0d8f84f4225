"""Points, curves and divisors hold their field and canonical kernel
pairs, built once by the constructor, and box Scalars (or, for a
divisor, Polys) only when a coordinate is read."""

import json
from fractions import Fraction

import pytest

from hypadd import (
    CurveParams,
    GroupoidPoint,
    MumfordDivisor,
    Poly,
    RFunction,
    cantor_add,
    cantor_neg,
    from_mumford,
    invert,
    make_field,
    star,
    star_detail,
    to_mumford,
    u_poly,
    v_poly,
)
from hypadd.errors import DegenerateConfiguration, FieldMismatch, NotOnJacobian
from hypadd.field import FieldSpec, Scalar
from hypadd.jsonio import (
    curve_from_json,
    curve_to_json,
    divisor_from_json,
    divisor_to_json,
    point_from_json,
    point_to_json,
)
from hypadd.poly import _ints, _trim
from tests.conftest import TEST_PRIME, fp_pair, q_pair, seeded

Q = make_field("q")
P = make_field("fp", TEST_PRIME)
F7 = make_field("fp", 7)
F11 = make_field("fp", 11)


def answered(rng, count=2):
    """(curve, a, b) with star answering, over F_p and Q at genus 1-4."""
    out = []
    for g in (1, 2, 3, 4):
        for field in (P, Q):
            found = 0
            while found < count:
                c, a, b = fp_pair(P, g, rng) if field is P else q_pair(g, rng)
                try:
                    star(a, b)
                except DegenerateConfiguration:
                    continue
                out.append((c, a, b))
                found += 1
    return out


def test_q_coordinates_read_back_unchanged():
    """Denominators, zeros and a trailing zero of p_odd survive the pairs:
    every read gives the same Fraction values, and so does a curve's."""
    pe = tuple(Q.scalar(v) for v in (Fraction(-3, 4), Fraction(5, 6), 0))
    po = tuple(Q.scalar(v) for v in (Fraction(7, 10), 4, 0))
    z = tuple(Q.scalar(v) for v in (0, Fraction(-1, 3), 2))
    a = GroupoidPoint(pe, po, z)
    for got, want in ((a.p_even, pe), (a.p_odd, po), (a.z, z)):
        assert got == want
        assert [s.value for s in got] == [s.value for s in want]
        assert all(type(s.value) is Fraction and s.field is Q for s in got)
    c = CurveParams(3, po, z)
    assert (c.lambda1, c.lambda2) == (po, z)
    assert repr(a) == f"GroupoidPoint({pe}, {po}, {z})"


def test_fp_coordinates_reduce_into_range():
    """A Scalar holding a residue outside [0, p) reads back reduced."""
    a = GroupoidPoint(
        (Scalar(F7, -1), Scalar(F7, 9)), (Scalar(F7, -8), Scalar(F7, 0)), (Scalar(F7, 13), Scalar(F7, -14))
    )
    assert [s.value for s in a.p_even] == [6, 2]
    assert [s.value for s in a.p_odd] == [6, 0]
    assert [s.value for s in a.z] == [6, 0]
    assert a == GroupoidPoint(F7._box([6, 2]), F7._box([6, 0]), F7._box([6, 0]))
    c = CurveParams(1, (Scalar(F7, -3),), (Scalar(F7, 20),))
    assert [s.value for s in c.lambda1 + c.lambda2] == [4, 6]


def test_equal_points_from_every_route_compare_and_hash_equal():
    """The constructor, star, star_detail, the Cantor round trip, JSON and
    invert twice all give the same canonical pairs."""
    for c, a, b in answered(seeded("routes"), 1):
        s = star(a, b)
        text = json.dumps(point_to_json(s))
        routes = [
            GroupoidPoint(s.p_even, s.p_odd, s.z),
            star_detail(a, b).point,
            from_mumford(cantor_add(to_mumford(a, c), to_mumford(b, c), c), c),
            point_from_json(c.field, json.loads(text)),
            invert(invert(s)),
        ]
        assert all(r == s for r in routes)
        assert {hash(r) for r in routes} == {hash(s)}
        back = curve_from_json(json.loads(json.dumps(curve_to_json(c))))
        assert back == c and hash(back) == hash(c)
        assert back == CurveParams(c.genus, c.lambda1, c.lambda2)


def test_equal_residues_over_different_fields_compare_unequal():
    """The kernel pairs of these points (u = x, v = 1, z = 1) and curves
    are equal ints over F_7, F_11 and Q, so the field decides."""
    fields = (F7, F11, Q)
    points = [GroupoidPoint((f.zero(),), (f.one(),), (f.one(),)) for f in fields]
    curves = [CurveParams(1, (f.one(),), (f.one(),)) for f in fields]
    assert len({(a._u, a._v, a._z) for a in points}) == len({c._f for c in curves}) == 1
    for items in (points, curves):
        assert [x == y for x in items for y in items] == [x is y for x in items for y in items]


def test_star_and_the_cantor_round_trip_build_no_scalar(monkeypatch):
    """star, to_mumford, cantor_add and from_mumford read and answer
    kernel pairs, so none of them builds a Scalar."""
    cases = answered(seeded("no-scalar"))
    built, real_init = [], Scalar.__init__

    def counted(self, field, value):
        built.append(value)
        real_init(self, field, value)

    monkeypatch.setattr(Scalar, "__init__", counted)
    for c, a, b in cases:
        want = star(a, b)
        assert from_mumford(cantor_add(to_mumford(a, c), to_mumford(b, c), c), c) == want
    assert built == []


def test_constructors_refuse_mixed_fields_and_non_scalars():
    """Without the check these built silently, and anchor or curve_poly
    then answered over the first coordinate's field."""
    one7, one = F7.one(), Q.one()
    with pytest.raises(FieldMismatch):
        GroupoidPoint((one7,), (one,), (one7,))
    with pytest.raises(FieldMismatch):
        GroupoidPoint((one7, one7), (one7, one7), (one7, F11.one()))
    with pytest.raises(FieldMismatch):
        CurveParams(1, (one,), (one7,))
    for bad in (1, "1", Fraction(1), None):
        with pytest.raises(ValueError):
            GroupoidPoint((one7,), (bad,), (one7,))
        with pytest.raises(ValueError):
            GroupoidPoint((bad,), (one7,), (one7,))
        with pytest.raises(ValueError):
            CurveParams(1, (one7,), (bad,))
    with pytest.raises(ValueError):
        GroupoidPoint((), (), ())


def test_a_point_of_another_genus_is_not_on_the_curve():
    """(0, 1) lies on y^2 = x^5 + 1, yet the genus-1 point with u = x,
    v = 1 and z = 0 is not a point of that genus-2 curve: z keeps its
    length, so the comparison of pairs sees the genus."""
    zero, one = Q.zero(), Q.one()
    c = CurveParams(2, (one, zero), (zero, zero))
    a = GroupoidPoint((zero,), (one,), (zero,))
    with pytest.raises(NotOnJacobian):
        to_mumford(a, c)


def test_equal_divisors_from_every_route_compare_and_hash_equal():
    """The constructor, to_mumford, cantor_add in both orders, cantor_neg
    twice and JSON give the same pairs for one divisor, and negation
    matches the inverted point's divisor."""
    for c, a, b in answered(seeded("divisor-routes"), 1):
        s = cantor_add(to_mumford(a, c), to_mumford(b, c), c)
        text = json.dumps(divisor_to_json(s))
        routes = [
            MumfordDivisor(s.u, s.v),
            to_mumford(star(a, b), c),
            cantor_add(to_mumford(b, c), to_mumford(a, c), c),
            cantor_neg(cantor_neg(s, c), c),
            divisor_from_json(c.field, json.loads(text)),
        ]
        assert all(r == s for r in routes)
        assert {hash(r) for r in routes} == {hash(s)}
        neg = cantor_neg(to_mumford(a, c), c)
        assert neg == to_mumford(invert(a), c) == MumfordDivisor(u_poly(a), -v_poly(a))
        assert hash(neg) == hash(to_mumford(invert(a), c))


def test_divisor_reads_back_its_polys():
    """.u and .v give back equal Polys with the same coefficient values,
    Fractions over Q and reduced residues over F_7."""
    q_u = Poly(Q, [Fraction(5, 6), Fraction(-3, 4), 1])
    q_v = Poly(Q, [Fraction(7, 10), 4])
    f7_u, f7_v = Poly(F7, [-1, 9, 1]), Poly(F7, [13])
    for u, v in ((q_u, q_v), (f7_u, f7_v)):
        d = MumfordDivisor(u, v)
        assert (d.u, d.v) == (u, v) and d.field is u.field
        for got, want in ((d.u.coeffs, u.coeffs), (d.v.coeffs, v.coeffs)):
            assert [(type(s.value), s.value) for s in got] == [(type(s.value), s.value) for s in want]
        assert repr(d) == f"MumfordDivisor(u={u!r}, v={v!r})"
    assert [s.value for s in MumfordDivisor(f7_u, f7_v).u.coeffs] == [6, 2, 1]
    # u = x + 1 and v = 1 have equal pairs over F_7, F_11 and Q, so the field decides.
    same = [MumfordDivisor(Poly(f, [1, 1]), Poly(f, [1])) for f in (F7, F11, Q)]
    assert [x == y for x in same for y in same] == [x is y for x in same for y in same]


def test_divisor_constructor_keeps_its_checks():
    """u must be nonzero and monic, deg v < deg u, and u, v share a field."""
    x = Poly(F7, [0, 1])
    for u, v in ((Poly(F7), Poly(F7)), (Poly(F7, [0, 2]), Poly(F7)), (x, Poly(F7, [1, 1]))):
        with pytest.raises(ValueError):
            MumfordDivisor(u, v)
    with pytest.raises(FieldMismatch):
        MumfordDivisor(x, Poly(F11, [1]))


def test_divisor_constructor_checks_the_field_first():
    """A u and v over different fields raise FieldMismatch whatever their
    degrees and whether u is monic: the field check runs before the
    shape checks."""
    for u, v in (
        (Poly(F7, [1]), Poly(Q, [1])),
        (Poly(F7, [0, 1]), Poly(F11, [1, 1])),
        (Poly(F7, [0, 2]), Poly(Q, [1])),
        (Poly(F7), Poly(Q)),
    ):
        with pytest.raises(FieldMismatch):
            MumfordDivisor(u, v)


def values_two_ways(c, a, b):
    """(class, built by the public constructor, built from its slots by
    `_make` or `_from_values`) for each value class, on one answered pair:
    the private side starts from bare values and `poly` kernel pairs."""
    field, p, g = c.field, c.field.modulus, c.genus

    def bare(scalars):
        return [s.value for s in scalars]

    def kernel_pair(scalars):
        return _trim(*_ints(bare(scalars), p))

    u = [-s for s in a.p_even] + [field.one()]
    zs, dz = _ints(bare(a.z), p)
    z = (tuple(zs), dz)
    r = star_detail(a, b).r
    rs = [r.r1.coeffs, r.r2.coeffs, r.r3.coeffs]
    return [
        (FieldSpec, make_field("fp", p) if p else make_field("q"), FieldSpec._make(p)),
        (Poly, Poly(field, u), Poly._make(field, *kernel_pair(u))),
        (
            CurveParams,
            CurveParams(g, c.lambda1, c.lambda2),
            CurveParams._from_values(field, bare(c.lambda1), bare(c.lambda2)),
        ),
        (
            GroupoidPoint,
            GroupoidPoint(a.p_even, a.p_odd, a.z),
            GroupoidPoint._make(field, kernel_pair(u), kernel_pair(a.p_odd), z),
        ),
        (GroupoidPoint, a, GroupoidPoint._from_values(field, bare(u), bare(a.p_odd), z)),
        (
            MumfordDivisor,
            MumfordDivisor(u_poly(a), v_poly(a)),
            MumfordDivisor._make(field, kernel_pair(u), kernel_pair(a.p_odd)),
        ),
        (
            RFunction,
            RFunction(g, *[Poly(field, coeffs) for coeffs in rs]),
            RFunction._make(g, *[Poly._make(field, *kernel_pair(coeffs)) for coeffs in rs]),
        ),
    ]


def test_public_and_private_constructors_give_one_value():
    """Each value class's public constructor and `_make` (or
    `_from_values`) build values that compare equal and hash alike, over
    F_p and Q at genus 1-4: both hold the same canonical slots."""
    seen = set()
    for c, a, b in answered(seeded("value-rule"), 1):
        for cls, public, private in values_two_ways(c, a, b):
            assert type(public) is type(private) is cls and public is not private
            assert public == private and private == public and not public != private
            assert hash(public) == hash(private)
            assert len({public, private}) == 1
            seen.add(cls)
    assert len(seen) == 6


def test_a_value_equals_only_its_own_class():
    """A point and the divisor of its Mumford pair hold one field, u and v,
    yet compare unequal; and no value equals an int, so `x == 3` is
    False through the base rule's NotImplemented."""
    for c, a, b in answered(seeded("value-class"), 1):
        d = to_mumford(a, c)
        assert (d.field, d._u, d._v) == (a.field, a._u, a._v)
        assert a != d and d != a and not a == d
        for _, public, private in values_two_ways(c, a, b):
            assert public.__eq__(3) is NotImplemented
            assert (public == 3) is False and (3 == private) is False and public != 3
