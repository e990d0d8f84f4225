import random
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from hypadd import (
    CurveParams,
    GroupoidPoint,
    anchor,
    cantor_add,
    closedform,
    curve_from_anchor,
    curve_poly,
    from_mumford,
    grade_scale,
    groupoid,
    invert,
    make_field,
    poly,
    rank_witness,
    star,
    star_detail,
    to_mumford,
    u_poly,
    v_poly,
    viete_phi,
)
from hypadd.errors import (
    AnchorMismatch,
    DegenerateConfiguration,
    FieldMismatch,
    HypaddError,
    InvariantViolation,
    NonzeroRemainder,
    NotMonicDegree3g,
    RepeatedAbscissa,
    ZeroScale,
)
from hypadd.groupoid import (
    PointListRep,
    RFunction,
    anchor_s,
    build_r_determinant,
    phi_poly,
)
from hypadd.field import Scalar
from hypadd.poly import Poly, _read
from hypadd.sampling import fit_curve_through, random_curve_fp, sample_point_fp
from tests.conftest import TEST_PRIME, bump_anchor_quotient, fp_pair, q_pair, seeded, shift_g2_low
from tests.test_poly import FRACTION_ARITHMETIC

Q = make_field("q")
P = make_field("fp", TEST_PRIME)
M61 = make_field("fp", 2**61 - 1)
F3 = make_field("fp", 3)
F7 = make_field("fp", 7)


def holds_field_scalars(r, field):
    """Whether R's polynomials read as Scalars of field: ints over F_p, Fractions over Q."""
    kind = Fraction if field.modulus == 0 else int
    values = [c for h in (r.r1, r.r2, r.r3) for c in h.coeffs]
    return all(c.field == field and type(c.value) is kind for c in values)


def qs(*vals):
    return tuple(Q.scalar(v) for v in vals)


def solved_r(b1, b2):
    """R from the h-solve of two inverted points, read by star's builder."""
    return groupoid._r_function(b1.field, *groupoid._solve_h_core(b1, b2))


def g1_point(p2, p3, z4=0):
    return GroupoidPoint(qs(p2), qs(p3), qs(z4))


# the standing worked pair: the chord through (2,3) and (0,1) on
# y^2 = x^3 + 1
A1 = g1_point(2, 3)
A2 = g1_point(0, 1)
A3 = g1_point(-1, 0)


def test_anchor_worked_g1():
    z1, z2 = anchor(A1)
    assert z1 == qs(1)
    assert z2 == qs(0)
    assert anchor(A2) == (qs(1), qs(0))
    assert anchor(A3) == (qs(1), qs(0))


def test_star_worked_g1():
    assert star(A1, A2) == A3


def test_star_commutes_worked_g1():
    assert star(A2, A1) == A3


def test_invert_is_involution():
    assert invert(invert(A1)) == A1
    assert invert(A1) == g1_point(2, -3)


def test_invert_preserves_anchor():
    assert anchor(invert(A1)) == anchor(A1)


def test_inverse_axiom_worked_g1():
    assert star(star(A1, A2), invert(A2)) == A1


def test_anchor_genus2_explicit_polynomials():
    """anchor() against the expanded degree-2 fiber polynomials."""
    rng = seeded("g2-anchor")
    for _ in range(10):
        c, a, _ = q_pair(2, rng)
        p4, p2 = a.p_even
        p5, p3 = a.p_odd
        z6, z4 = a.z
        lam10 = (
            p5 * p5
            + p3 * p3 * p4
            - p2 * p4 * (p2 * p2 + p4 + z4)
            - p4 * (p2 * p4 + z6)
        )
        lam8 = (
            2 * p3 * p5
            + p2 * p3 * p3
            - (p2 * p2 + p4) * (p2 * p2 + p4 + z4)
            - p2 * (p2 * p4 + z6)
        )
        z1, z2 = anchor(a)
        assert z1 == (lam10, lam8)
        assert z2 == (z6, z4)


def test_curve_from_anchor_round_trip():
    c = curve_from_anchor(1, *anchor(A1))
    assert c.genus == 1
    assert c.lambda1 == qs(1)
    assert c.lambda2 == qs(0)
    f = curve_poly(c)
    # y^2 = x^3 + 1
    assert [x.to_string() for x in f.coeffs] == ["1", "0", "0", "1"]


def test_u_v_poly_conventions():
    # u(x) = x - p2, v(x) = p3
    u = u_poly(A1)
    v = v_poly(A1)
    assert u(Q.scalar(2)) == Q.zero()
    assert u.is_monic() and u.degree == 1
    assert v(Q.scalar(17)) == Q.scalar(3)


def test_viete_g2_hand_values():
    eta1, eta2 = Q.scalar(5), Q.scalar(9)
    t = PointListRep(((Q.scalar(1), eta1), (Q.scalar(2), eta2)), qs(0, 0))
    a = viete_phi(t)
    assert a.p_even == qs(-2, 3)
    assert a.p_odd == (2 * eta1 - eta2, eta2 - eta1)


def test_viete_repeated_abscissa():
    """The point list itself refuses two equal abscissas, so neither
    viete_phi nor anchor_s ever sees one."""
    with pytest.raises(RepeatedAbscissa):
        PointListRep(((Q.scalar(1), Q.scalar(2)), (Q.scalar(1), Q.scalar(3))), qs(0, 0))
    with pytest.raises(RepeatedAbscissa):
        PointListRep(((F7.scalar(1), F7.scalar(2)), (F7.scalar(8), F7.scalar(3))), [F7.zero()] * 2)


def test_anchor_s_agrees_with_anchor():
    rng = seeded("anchor-s")
    for field in (Q, P):
        for g in (1, 2, 3, 4):
            for _ in range(8):
                xs = rng.sample(range(-9, 10), g)
                pairs = tuple((field.scalar(x), field.scalar(rng.randint(1, 9))) for x in xs)
                z = tuple(field.scalar(rng.randint(-5, 5)) for _ in range(g))
                t = PointListRep(pairs, z)
                assert anchor_s(t) == anchor(viete_phi(t))


def wide_value(field, rng):
    """A Fraction with a denominator up to 9 over Q, any residue over F_p."""
    if field is Q:
        return Fraction(rng.randint(-40, 40), rng.randint(1, 9))
    return rng.randrange(field.modulus)


def test_anchor_s_agrees_with_anchor_on_wide_values():
    """anchor_s clears each Vandermonde row of its denominators over Q
    and works on residues over F_p, so it must still match anchor with
    Fraction abscissas and ordinates, near 2^61 and in F_3, up to genus 8."""
    rng = seeded("anchor-s-wide")
    cases = [(Q, g) for g in (1, 2, 3, 5, 8)] + [(M61, g) for g in (1, 2, 5, 8)]
    for field, g in cases + [(F3, g) for g in (1, 2, 3)]:
        for _ in range(4):
            xs = set()
            while len(xs) < g:
                xs.add(wide_value(field, rng))
            pairs = tuple((field.scalar(x), field.scalar(wide_value(field, rng))) for x in xs)
            t = PointListRep(pairs, tuple(field.scalar(wide_value(field, rng)) for _ in range(g)))
            assert anchor_s(t) == anchor(viete_phi(t))


def test_point_list_rep_refuses_genus_zero():
    """No pairs is genus 0, refused as GroupoidPoint refuses it, before
    viete_phi or anchor_s could index the empty pair list."""
    with pytest.raises(ValueError, match="g >= 1"):
        viete_phi(PointListRep([], []))
    with pytest.raises(ValueError, match="g >= 1"):
        anchor_s(PointListRep([], []))


@pytest.mark.parametrize(
    "pairs, z",
    [
        ([(Q.scalar(1), Q.scalar(2))], [F7.zero()]),
        ([(Q.scalar(1), Q.scalar(2)), (F7.scalar(1), F7.scalar(3))], [Q.zero(), Q.zero()]),
        ([(Q.scalar(1), F7.scalar(2))], [Q.zero()]),
    ],
    ids=["z", "abscissa", "ordinate"],
)
def test_point_list_rep_refuses_a_foreign_field(pairs, z):
    """A z entry, abscissa or ordinate over another field than the first
    abscissa is refused with FieldMismatch, through viete_phi and anchor_s
    alike, instead of a point over mixed fields or a RepeatedAbscissa."""
    with pytest.raises(FieldMismatch):
        viete_phi(PointListRep(pairs, z))
    with pytest.raises(FieldMismatch):
        anchor_s(PointListRep(pairs, z))


def test_solve_h_worked_g1():
    r = solved_r(invert(A1), invert(A2))
    assert r.r2.coeffs == qs(1)
    assert r.r3.coeffs == qs(1)


def test_symmetrized_h1_display_probe():
    """The symmetrized first-block display disagrees with the linear
    system on the worked pair; this pins the observed values so the
    discrepancy stays documented.  The solver uses the linear system.
    """
    b1, b2 = invert(A1), invert(A2)
    r = solved_r(b1, b2)  # at genus 1, h1 is r3 and h2 is r2
    # genus 1: L is the 1 x 1 first column of _columns, ell the second
    (l1, ell1), (l2, ell2) = (
        [_read(Q, col, 1)[0] for col in zip(*groupoid._columns(b))] for b in (b1, b2)
    )
    half = Q.scalar(Fraction(1, 2))
    inner_minus = (-half * ((ell1 + ell2) - (l1 + l2) * r.r2[0]),)
    inner_plus = (-half * ((ell1 + ell2) + (l1 + l2) * r.r2[0]),)
    assert r.r3.coeffs == qs(1)
    assert inner_minus == qs(3)
    assert inner_plus == qs(1)


def test_solve_h_doubling_degenerate():
    with pytest.raises(DegenerateConfiguration) as exc:
        groupoid._solve_h_core(invert(A1), invert(A1))
    assert exc.value.stage == "h_solve"


def test_star_doubling_degenerate():
    with pytest.raises(DegenerateConfiguration) as exc:
        star(A1, A1)
    assert exc.value.stage == "h_solve"


def test_build_r_determinant_doubling_degenerate():
    with pytest.raises(DegenerateConfiguration) as exc:
        build_r_determinant(invert(A1), invert(A1))
    assert exc.value.stage == "det_lead"


def test_degenerate_stage_defaults_to_none():
    assert DegenerateConfiguration("no stage given").stage is None


def test_star_anchor_mismatch():
    other = g1_point(0, 2)  # lies on y^2 = x^3 + 4
    with pytest.raises(AnchorMismatch):
        star(A1, other)
    # (0, 1) with z = 5: the same Z1 = 1 as A1, but on y^2 = x^3 + 5x + 1
    with pytest.raises(AnchorMismatch):
        star(A1, g1_point(0, 1, 5))


def test_points_of_another_field_or_genus_rejected():
    """star, star_detail, rank_witness and build_r_determinant refuse a
    point over another field, as Cantor's to_mumford does, rather than
    answering over the first point's field; a point of another genus is a
    ValueError, checked first."""
    f7, f11 = make_field("fp", 7), make_field("fp", 11)
    a = GroupoidPoint((f7.scalar(6),), (f7.scalar(0),), (f7.scalar(3),))
    b = GroupoidPoint((f11.scalar(0),), (f11.scalar(2),), (f11.scalar(3),))
    for call in (star, star_detail, build_r_determinant):
        with pytest.raises(FieldMismatch):
            call(a, b)
    for triple in ((a, b, a), (a, a, b), (b, a, a)):
        with pytest.raises(FieldMismatch):
            rank_witness(*triple)
    g2 = GroupoidPoint(*[(f7.zero(),) * 2] * 3)
    for call in (star, build_r_determinant, lambda x, y: rank_witness(x, x, y)):
        with pytest.raises(ValueError, match="genus"):
            call(a, g2)
        with pytest.raises(ValueError, match="genus"):
            call(GroupoidPoint(*[(f11.zero(),) * 2] * 3), a)
    # genus 2 over F_p takes star's straight-line route only past both checks;
    # equal numerators over F_7 and F_11 would pass its anchor comparison
    b7, b11 = (
        GroupoidPoint(*[(f.scalar(k), f.scalar(k + 1)) for k in (1, 3, 5)]) for f in (f7, f11)
    )
    for x, y in ((b7, b11), (b11, b7)):
        with pytest.raises(FieldMismatch):
            star(x, y)
    g3 = GroupoidPoint(*[(f7.zero(),) * 3] * 3)
    for x, y in ((b7, a), (b7, g3), (g3, b7)):
        with pytest.raises(ValueError, match="genus"):
            star(x, y)


def test_rfunction_worked_g1():
    # R = y + x + 1 interpolates the chord
    res = star_detail(A1, A2)
    r = res.r
    assert r.h_at(0) == Q.one()
    assert r.h_at(1) == Q.one()
    assert r.h_at(2) == Q.zero()  # gap co-weight for genus 1
    assert r.h_at(3) == Q.one()
    # R vanishes at the inverted inputs and at the product point
    for x, y in ((2, -3), (0, -1), (-1, 0)):
        val = Q.scalar(y) * r.r1(Q.scalar(x)) + (
            Q.scalar(x) * r.r2(Q.scalar(x)) + r.r3(Q.scalar(x))
        )
        assert val == Q.zero()


def test_phi_worked_g1():
    res = star_detail(A1, A2)
    c = curve_from_anchor(1, *anchor(A1))
    phi = phi_poly(res.r, c)
    # x^3 - x^2 - 2x = x(x-2)(x+1)
    assert [x.to_string() for x in phi.coeffs] == ["0", "-2", "-1", "1"]


def test_phi_wrong_genus_not_monic():
    res = star_detail(A1, A2)
    c2 = CurveParams(2, qs(1, 0), qs(0, 0))
    with pytest.raises(NotMonicDegree3g):
        phi_poly(res.r, c2)


def test_dual_check_disagreement_raises(monkeypatch):
    """An h-solve that returns a wrong R stops star with a typed error
    from the certificate, so the dual check still holds under python -O."""
    real = groupoid._solve_h_core

    def off_by_one(b1, b2):
        h1, h2, den = real(b1, b2)
        return h1, [h2[0] + den] + h2[1:], den

    monkeypatch.setattr(groupoid, "_solve_h_core", off_by_one)
    with pytest.raises(InvariantViolation):
        star(A1, A2)


def test_dual_check_catches_kl_columns_fault(monkeypatch):
    """The certificate reads u and v directly, so a fault in the int
    columns (L | ell) that feed the h-solve over both fields cannot pass
    it, whether it hits both inputs or only one of them."""
    real = groupoid._columns
    rng = seeded("kl-fault")
    pairs = [A1, A2], list(q_pair(2, rng)[1:]), list(fp_pair(P, 3, rng)[1:])
    for a1, a2 in pairs:
        inverted = invert(a1), invert(a2)
        for faulty in (inverted, inverted[:1], inverted[1:]):

            def perturbed(b, faulty=faulty):
                cols, dens = real(b)
                if b in faulty:  # ell is the last column; bump its first numerator
                    cols[-1] = [cols[-1][0] + 1] + cols[-1][1:]
                return cols, dens

            monkeypatch.setattr(groupoid, "_columns", perturbed)
            with pytest.raises(InvariantViolation):
                star(a1, a2)


def test_star_makes_one_solve(monkeypatch):
    """star solves one linear system, the h-solve, with one call of the
    linalg kernel, over F_p and over Q."""
    sizes = []
    real = groupoid._solve_rows

    def counted(a, n, p):
        sizes.append(n)
        return real(a, n, p)

    monkeypatch.setattr(groupoid, "_solve_rows", counted)
    rng = seeded("one-solve")
    pairs = [fp_pair(P, g, rng) for g in (1, 3, 8)] + [q_pair(2, rng)]
    for _, a1, a2 in pairs:
        sizes.clear()
        star(a1, a2)
        assert sizes == [a1.genus]


def test_solve_h_holds_field_scalars(monkeypatch):
    """R read from the h-solve holds Scalars of the inputs' field: residues
    over F_p, Fractions over Q, also when the solved denominator det m_g
    is 1 or -1, which the builder's `_norm` makes positive.  The genus-1
    curve through (1, 1) and (0, 2), with the pair taken in each order,
    gives those two denominators, and one R."""
    dets = []
    real = groupoid._solve_rows

    def recorded(a, n, p):
        y, det = real(a, n, p)
        dets.append(det)
        return y, det

    monkeypatch.setattr(groupoid, "_solve_rows", recorded)
    rng = seeded("solve-h-scalars")
    _, a1, a2 = fp_pair(P, 3, rng)
    assert holds_field_scalars(solved_r(invert(a1), invert(a2)), P)
    c = fit_curve_through(Q, 1, [qs(1, 1), qs(0, 2)])
    b1, b2 = (viete_phi(PointListRep([qs(*xy)], c.lambda2)) for xy in ((1, 1), (0, 2)))
    assert groupoid._columns(b1)[1] == [1, 1]
    assert groupoid._columns(b2)[1] == [1, 1]
    dets.clear()
    for x, y in ((b1, b2), (b2, b1), q_pair(2, rng)[1:]):
        assert holds_field_scalars(solved_r(invert(x), invert(y)), Q)
    assert dets[:2] == [1, -1]
    assert solved_r(invert(b1), invert(b2)) == solved_r(invert(b2), invert(b1))


def test_q_star_solves_h_on_ints(monkeypatch):
    """Over Q the h-solve runs on int numerators: no Fraction arithmetic
    inside _solve_h_core, also when p_even has denominators."""
    real = groupoid._solve_h_core

    def refuse(*_):
        raise AssertionError("Fraction arithmetic in the Q h-solve")

    def on_ints(b1, b2):
        with pytest.MonkeyPatch.context() as inner:
            for name in FRACTION_ARITHMETIC:
                inner.setattr(Fraction, name, refuse)
            return real(b1, b2)

    rng, t = seeded("q-int-solve"), Q.scalar(Fraction(2, 3))
    cases = [(A1, A2)]
    for g in (1, 2, 3, 4):
        c, a1, a2 = q_pair(g, rng)
        cases.append((a1, a2))
        cases.append((grade_scale(a1, c, t)[0], grade_scale(a2, c, t)[0]))
    want = [star(a1, a2) for a1, a2 in cases]
    monkeypatch.setattr(groupoid, "_solve_h_core", on_ints)
    assert [star(a1, a2) for a1, a2 in cases] == want


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 2**32),
    st.one_of(st.integers(-40, -1), st.integers(1, 40)),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_q_star_on_grade_scaled_pairs(g, seed, num, den):
    """Scaling by a non-integer t puts denominators into p_even; star
    must still match the determinant route to R and the Cantor round
    trip, and still refuse doubling at the h-solve."""
    t = Q.scalar(Fraction(num, den))
    c, a1, a2 = q_pair(g, random.Random(seed))
    a1, cs = grade_scale(a1, c, t)
    a2, _ = grade_scale(a2, c, t)
    if all(s.value.denominator == 1 for s in a1.p_even + a2.p_even):
        reject()
    try:
        res = star_detail(a1, a2)
    except DegenerateConfiguration:
        reject()
    assert res.r == build_r_determinant(invert(a1), invert(a2))
    assert res.point == from_mumford(cantor_add(to_mumford(a1, cs), to_mumford(a2, cs), cs), cs)
    with pytest.raises(DegenerateConfiguration) as exc:
        star(a1, a1)
    assert exc.value.stage == "h_solve"


def test_star_needs_no_xgcd_and_no_monomial_product(monkeypatch):
    """The odd part comes from the inverse-only Euclid and every x^k
    product is a shift, so star answers with xgcd and x_power gone."""
    rng = seeded("no-xgcd")
    for _ in range(5):
        c, a1, a2 = fp_pair(P, 8, rng)
        try:
            want = star(a1, a2)
            break
        except DegenerateConfiguration:
            continue

    def refuse(*_):
        raise AssertionError("xgcd or x_power on the star path")

    for module in (poly, groupoid):
        for name in ("xgcd", "x_power"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    assert star(A1, A2) == A3
    assert star(A2, A1) == A3
    assert star(star(A1, A2), invert(A2)) == A1
    assert star(a1, a2) == want


def test_rfunction_refuses_mixed_fields():
    """r1, r2 and r3 lie over one field: otherwise R's h mixed Scalars of
    two fields.  The field check runs before the slot checks."""
    RFunction(1, Poly(F7, [1]), Poly(F7, [2]), Poly(F7, [3]))
    for fields, r1 in (
        ((F7, Q, F7), [1]),
        ((Q, Q, F7), [1]),
        ((F7, P, P), [1]),
        ((F7, Q, F7), [2]),  # r1 not monic as well
    ):
        with pytest.raises(FieldMismatch):
            RFunction(1, Poly(fields[0], r1), Poly(fields[1], [2]), Poly(fields[2], [3]))


def test_rfunction_rejects_bad_slots():
    """r1 is the monic lead at odd g and r2 at even g; a coefficient
    past the slots of its co-weight is refused."""
    one, two = P.scalar(1), P.scalar(2)

    def poly(*cs):
        return Poly(P, cs)

    # g = 1: r1 monic of degree 0, r2 of degree <= 0, r3 of degree <= 0
    RFunction(1, poly(one), poly(two), poly(two))
    for bad in (
        (poly(two), poly(two), poly(two)),  # lead not monic
        (poly(), poly(two), poly(two)),  # lead of the wrong degree
        (poly(two, one), poly(two), poly(two)),  # r1 past its slots
    ):
        with pytest.raises(ValueError):
            RFunction(1, *bad)
    # g = 2: r1 of degree <= 0, r2 monic of degree 1, r3 of degree <= 1
    RFunction(2, poly(two), poly(two, one), poly(two, two))
    for bad in (
        (poly(two), poly(two, two), poly(two)),  # lead not monic
        (poly(two), poly(one), poly(two)),  # lead of the wrong degree
        (poly(two, one), poly(two, one), poly(two)),  # r1 past its slots
    ):
        with pytest.raises(ValueError):
            RFunction(2, *bad)
    rng = seeded("h-keys")
    for g in (1, 2, 3, 4):
        c, a1, a2 = fp_pair(P, g, rng)
        keys = {3 * g - 2 * i for i in range(g)} | set(range(g + 1))
        assert set(star_detail(a1, a2).r.h) == keys


def test_dual_r_routes_agree():
    rng = seeded("dual-r")
    for g in (1, 2, 3):
        for _ in range(6):
            c, a1, a2 = q_pair(g, rng)
            b1, b2 = invert(a1), invert(a2)
            det_route = build_r_determinant(b1, b2)
            solve_route = solved_r(b1, b2)
            assert det_route.h == solve_route.h


def test_star_matches_over_fp():
    rng = seeded("fp-star")
    for g in (1, 2, 3):
        c, a1, a2 = fp_pair(P, g, rng)
        s = star(a1, a2)
        assert anchor(s) == anchor(a1)
        assert star(a2, a1) == s


def test_rank_witness_true_on_star_triples():
    rng = seeded("rank-true")
    for g in (1, 2, 3):
        c, a1, a2 = q_pair(g, rng)
        assert rank_witness(a1, a2, star(a1, a2))


def test_rank_witness_false_on_perturbed_triple():
    """Replacing the product by its inverse must break the witness;
    calibrated on 15/15 random probes before freezing."""
    rng = seeded("rank-false")
    c, a1, a2 = q_pair(2, rng)
    a3 = star(a1, a2)
    assert rank_witness(a1, a2, a3)
    assert not rank_witness(a1, a2, invert(a3))


def test_grading_equivariance():
    rng = seeded("grading")
    for g in (1, 2):
        c, a1, a2 = q_pair(g, rng)
        t = Q.scalar(Fraction(rng.randint(1, 7), rng.randint(1, 7)))
        b1, c1 = grade_scale(a1, c, t)
        b2, c2 = grade_scale(a2, c, t)
        assert c1.lambda1 == c2.lambda1 and c1.lambda2 == c2.lambda2
        assert anchor(b1) == (c1.lambda1, c1.lambda2)
        s, _ = grade_scale(star(a1, a2), c, t)
        assert star(b1, b2) == s


def test_grade_scale_zero_rejected():
    c = curve_from_anchor(1, *anchor(A1))
    with pytest.raises(ZeroScale):
        grade_scale(A1, c, Q.zero())


def test_grade_scale_refuses_mixed_inputs_as_star_does():
    """A curve of another genus is a "genus mismatch" and one over another
    field a FieldMismatch, as star refuses such a pair of points."""
    rng = seeded("grade-mixed")
    (c2, a2, _), (c3, _, _) = q_pair(2, rng), q_pair(3, rng)
    with pytest.raises(ValueError, match="genus mismatch"):
        grade_scale(a2, c3, Q.scalar(3))
    cp, ap, _ = fp_pair(P, 2, rng)
    with pytest.raises(FieldMismatch):
        grade_scale(ap, c2, P.scalar(3))
    with pytest.raises(FieldMismatch):
        grade_scale(a2, cp, Q.scalar(3))


@pytest.mark.parametrize("modulus", [101, TEST_PRIME, 0])
def test_grade_scale_keeps_the_point_on_the_graded_curve(modulus):
    """The graded point lies on the graded curve (to_mumford accepts it,
    and u stays monic) at genus 1-4, grading by t^(-1) undoes grading by
    t, and each coordinate of weight k is t^k times the original, as
    Scalars."""
    rng = seeded(f"grade-on-curve-{modulus}")
    field = make_field("fp", modulus) if modulus else Q

    def weighted(vec, top, t):
        return tuple(t ** (top - 2 * i) * s for i, s in enumerate(vec))

    for g in (1, 2, 3, 4):
        for _ in range(3):
            c, a, _ = fp_pair(field, g, rng) if modulus else q_pair(g, rng)
            t = field.scalar(Fraction(rng.randint(2, 9), rng.randint(2, 9)) + 1)
            ga, gc = grade_scale(a, c, t)
            assert ga != a and u_poly(ga).is_monic()
            to_mumford(ga, gc)
            assert grade_scale(ga, gc, t.inverse()) == (a, c)
            assert (ga.p_even, ga.p_odd, ga.z) == (
                weighted(a.p_even, 2 * g, t),
                weighted(a.p_odd, 2 * g + 1, t),
                weighted(a.z, 2 * g + 2, t),
            )
            assert (gc.lambda1, gc.lambda2) == (
                weighted(c.lambda1, 4 * g + 2, t),
                weighted(c.lambda2, 2 * g + 2, t),
            )


def test_grade_scale_weights_worked_g1():
    c = curve_from_anchor(1, *anchor(A1))
    t = Q.scalar(2)
    b, cg = grade_scale(A1, c, t)
    # weights: p2 -> 2, p3 -> 3, z4 -> 4, lambda6 -> 6, lambda4 -> 4
    assert b.p_even == (Q.scalar(2**2) * A1.p_even[0],)
    assert b.p_odd == (Q.scalar(2**3) * A1.p_odd[0],)
    assert b.z == (Q.scalar(2**4) * A1.z[0],)
    assert cg.lambda1 == (Q.scalar(2**6) * c.lambda1[0],)
    assert cg.lambda2 == (Q.scalar(2**4) * c.lambda2[0],)


def test_division_remainder_is_checked_every_call():
    """star performs the exact division phi / (u1 u2); a nonzero
    remainder would raise, so a successful call is itself the check."""
    rng = seeded("division")
    for g in (1, 2, 3):
        c, a1, a2 = q_pair(g, rng)
        res = star_detail(a1, a2)
        cc = curve_from_anchor(g, *anchor(a1))
        phi = phi_poly(res.r, cc)
        q, r = divmod(phi, u_poly(a1) * u_poly(a2))
        assert r.is_zero()
        assert q.is_monic() and q.degree == g
        assert u_poly(res.point) == q


def _answered_pairs(rng):
    """One pair star answers at each of F_p genus 1, 3, 8 and Q genus 1-3."""
    pairs = []
    for field, g in [(P, 1), (P, 3), (P, 8), (Q, 1), (Q, 2), (Q, 3)]:
        for _ in range(10):
            _, a1, a2 = fp_pair(P, g, rng) if field is P else q_pair(g, rng)
            try:
                star(a1, a2)
            except DegenerateConfiguration:
                continue
            pairs.append((a1, a2))
            break
    assert len(pairs) == 6
    return pairs


def test_star_boxes_only_its_answer(monkeypatch):
    """star_detail works on kernel pairs from input to output: its answer
    holds pairs too, so it builds no Scalar, and it runs no Poly
    arithmetic operator."""
    pairs = _answered_pairs(seeded("boxing"))
    want = [star_detail(a1, a2) for a1, a2 in pairs]
    built, real_init = [], Scalar.__init__

    def counted(self, field, value):
        built.append(value)
        real_init(self, field, value)

    def refuse(*_):
        raise AssertionError("Poly arithmetic in star_detail")

    monkeypatch.setattr(Scalar, "__init__", counted)
    for name in ("__add__", "__sub__", "__mul__", "__rmul__", "__divmod__", "__neg__"):
        monkeypatch.setattr(Poly, name, refuse)
    for (a1, a2), res in zip(pairs, want):
        built.clear()
        got = star_detail(a1, a2)
        assert built == []
        assert (got.point, got.r) == (res.point, res.r)


def test_star_checks_the_norm_quotient_shape(monkeypatch):
    """At odd g, r1 leads R, so a wrong q_a moves the x^(2g) coefficient
    of phi / u1: star raises NotMonicDegree3g, as phi is then not monic
    of degree 3g."""
    rng = seeded("norm-shape")
    pairs = [fp_pair(P, g, rng)[1:] for g in (1, 3)] + [q_pair(g, rng)[1:] for g in (1, 3)]
    bump_anchor_quotient(monkeypatch)
    for a1, a2 in pairs:
        with pytest.raises(NotMonicDegree3g):
            star(a1, a2)


def test_star_checks_the_division_by_u2(monkeypatch):
    """At even g, a wrong q_a leaves phi / u1 monic of degree 2g but no
    longer divisible by u2: star raises NonzeroRemainder.  The genus-2
    F_p pair takes the straight-line route, which has no q_a: there f's
    low half off by one at both inputs leaves f - V^2 not divisible by
    u1 u2.  With the route patched out, the generic body runs on that
    pair too."""
    rng = seeded("norm-remainder")
    g2_fp, *pairs = [fp_pair(P, g, rng)[1:] for g in (2, 4)] + [q_pair(g, rng)[1:] for g in (2, 4)]
    with monkeypatch.context() as patch:
        shift_g2_low(patch)
        for call in (star, star_detail):
            with pytest.raises(NonzeroRemainder):
                call(*g2_fp)
    monkeypatch.setattr(groupoid, "_g2_star", lambda *a: None)
    bump_anchor_quotient(monkeypatch)
    for call in (star, star_detail):
        with pytest.raises(NonzeroRemainder):
            call(*g2_fp)
    for a1, a2 in pairs:
        with pytest.raises(NonzeroRemainder):
            star(a1, a2)


def test_star_checks_the_quotient_by_u2_is_monic_of_degree_g(monkeypatch):
    """A quotient of phi / u1 by u2 that is not monic of degree g raises
    InvariantViolation.  Only that division has a dividend of degree 2g,
    twice the divisor's; its quotient's lead is doubled, once per pair."""
    rng = seeded("u2-quotient")
    pairs = [fp_pair(P, 4, rng)[1:], q_pair(2, rng)[1:]]
    real, bumped = groupoid._divmod, []

    def bump(a, da, b, db, p):
        (q, dq), r = real(a, da, b, db, p)
        if len(a) == 2 * len(b) - 1:
            bumped.append(len(b) - 1)
            q = q[:-1] + (2 * q[-1],)
        return (q, dq), r

    monkeypatch.setattr(groupoid, "_divmod", bump)
    for a1, a2 in pairs:
        with pytest.raises(InvariantViolation, match=f"monic degree-{a1.genus} quotient"):
            star(a1, a2)
    assert bumped == [4, 2]


def _route_pairs(field, n, tag):
    """n seeded genus-2 pairs over field that star answers."""
    rng, pairs = seeded(tag), []
    while len(pairs) < n:
        _, a1, a2 = fp_pair(field, 2, rng)
        try:
            star(a1, a2)
        except DegenerateConfiguration:
            continue
        pairs.append((a1, a2))
    return pairs


def _outcome(call, a1, a2):
    """call's point, or the type and stage of its typed error."""
    try:
        return call(a1, a2)
    except HypaddError as exc:
        return type(exc), getattr(exc, "stage", None)


@pytest.mark.parametrize(
    "p, refusals", [(10007, 0), (2**61 - 1, 0), (101, 20)], ids=["p10007", "p2^61-1", "p101"]
)
def test_genus2_fp_route_agrees_with_the_generic_body(monkeypatch, p, refusals):
    """The genus-2 F_p route gives, through star and star_detail, the
    point of the generic body (the route patched out), or the same typed
    error at the same stage: on 300 seeded pairs per field, and on each
    tenth pair's doubling and opposite.  Over F_101 about 9% of the
    random pairs refuse, so the hand-back to the generic stages runs on
    its own too."""

    def point(a1, a2):
        return star_detail(a1, a2).point

    def both_agree(a1, a2):
        got = _outcome(star, a1, a2)
        assert _outcome(point, a1, a2) == got
        with monkeypatch.context() as patch:
            patch.setattr(groupoid, "_g2_star", lambda *a: None)
            assert _outcome(point, a1, a2) == got
        return isinstance(got, tuple)

    field, rng, refused = make_field("fp", p), seeded(f"g2-route-agrees:{p}"), 0
    for i in range(300):
        _, a1, a2 = fp_pair(field, 2, rng)
        refused += both_agree(a1, a2)
        if i % 10 == 0:
            both_agree(a1, a1)
            both_agree(a1, invert(a1))
    assert refused >= refusals


@pytest.mark.parametrize("field", [P, M61], ids=["p10007", "p2^61-1"])
def test_genus2_fp_star_runs_only_the_route(monkeypatch, field):
    """On answered genus-2 pairs over F_p, star_detail, anchor, g2_add
    and sample_point_fp call none of the generic stages' kernels, and
    star builds no Scalar and no Poly either, so the benchmark's genus-2
    `verify` times straight-line code.  The answers are the generic
    body's (the route patched out) and the anchor division's."""
    pairs = _route_pairs(field, 10, "g2-route-only")
    points = [a for pair in pairs for a in pair]
    c = random_curve_fp(field, 2, seeded("g2-route-only:curve"))
    with monkeypatch.context() as patch:
        patch.setattr(groupoid, "_g2_star", lambda *a: None)
        want = [(res.point, res.r) for res in (star_detail(a1, a2) for a1, a2 in pairs)]
    anchors = [(_read(field, groupoid._anchor_division(a)[1], 2), a.z) for a in points]
    rng = seeded("g2-route-only:sample")
    samples = [sample_point_fp(c, rng) for _ in range(10)]
    built, real_init = [], Scalar.__init__

    def counted(self, f, value):
        built.append(value)
        real_init(self, f, value)

    def refuse(*_):
        raise AssertionError("a generic stage or a Poly on the genus-2 route")

    for name in ("_solve_rows", "_columns", "_mul", "_divmod", "_anchor_division"):
        monkeypatch.setattr(groupoid, name, refuse)
    for name in ("_mul", "_divmod"):
        monkeypatch.setattr(poly, name, refuse)
    got = [(res.point, res.r) for res in (star_detail(a1, a2) for a1, a2 in pairs)]
    assert got == want
    assert [anchor(a) for a in points] == anchors
    assert [closedform.g2_add(a1, a2) for a1, a2 in pairs] == [point for point, _ in want]
    rng = seeded("g2-route-only:sample")
    assert [sample_point_fp(c, rng) for _ in range(10)] == samples
    monkeypatch.setattr(Scalar, "__init__", counted)
    monkeypatch.setattr(Poly, "__init__", refuse)
    monkeypatch.setattr(Poly, "_make", refuse)
    monkeypatch.setattr(groupoid, "_inverse", refuse)
    assert [star(a1, a2) for a1, a2 in pairs] == [point for point, _ in want]
    assert built == []


@pytest.mark.parametrize(
    "p, answers", [(10007, 110), (2**61 - 1, 110), (101, 90)], ids=["p10007", "p2^61-1", "p101"]
)
def test_genus2_fp_route_r_is_the_bordered_determinant(monkeypatch, p, answers):
    """star_detail's R on the genus-2 route equals the bordered
    determinant's R and the generic body's (the route patched out), and
    a refusal has the generic body's type and stage: on 120 seeded pairs
    per field and each tenth pair's doubling and opposite.  `pgg` reads
    only h1^2, so this is the check on r1's sign and on r3."""

    def r(a1, a2):
        out = _outcome(star_detail, a1, a2)
        return out if isinstance(out, tuple) else out.r

    field, rng, answered = make_field("fp", p), seeded(f"g2-route-r:{p}"), 0
    for i in range(120):
        _, a1, a2 = fp_pair(field, 2, rng)
        for x, y in [(a1, a2)] + ([(a1, a1), (a1, invert(a1))] if i % 10 == 0 else []):
            got = r(x, y)
            with monkeypatch.context() as patch:
                patch.setattr(groupoid, "_g2_star", lambda *a: None)
                assert r(x, y) == got
            if not isinstance(got, tuple):
                assert got == build_r_determinant(invert(x), invert(y))
                answered += 1
    assert answered >= answers


def test_genus2_fp_route_checks_the_anchor(monkeypatch):
    """The route compares both halves of the two anchors itself: points
    on curves that differ only in f's low half, only in z, or in both
    raise AnchorMismatch with the generic anchor division refused."""
    rng = seeded("g2-route-anchor")
    c = random_curve_fp(P, 2, rng)
    (l0, l1), (z0, z1), one = c.lambda1, c.lambda2, P.one()
    others = CurveParams(2, (l0 + one, l1), (z0, z1)), CurveParams(2, (l0, l1), (z0, z1 + one))
    a = sample_point_fp(c, rng)
    bs = [sample_point_fp(other, rng) for other in (*others, random_curve_fp(P, 2, rng))]

    def refuse(*_):
        raise AssertionError("the generic anchor division ran")

    monkeypatch.setattr(groupoid, "_anchor_division", refuse)
    for b in bs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(AnchorMismatch):
                star(x, y)


def test_genus2_fp_route_checks_v_and_the_quotient(monkeypatch):
    """A wrong slope s moves V off w2 mod u2, and a wrong 1/s1 leaves the
    quotient (f - V^2) / (u1 u2) not monic: each raises
    InvariantViolation."""
    pairs = _route_pairs(P, 3, "g2-route-invariants")
    real = groupoid._g2_slope
    for bump, match in (((1, 0, 0), "second inverted summand"), ((0, 0, 1), "monic")):

        def bumped(*args, bump=bump):
            return tuple(x + d for x, d in zip(real(*args), bump))

        monkeypatch.setattr(groupoid, "_g2_slope", bumped)
        for a1, a2 in pairs:
            with pytest.raises(InvariantViolation, match=match):
                star(a1, a2)


def test_curve_params_need_genus_at_least_one():
    with pytest.raises(ValueError):
        CurveParams(0, (), ())


def test_curve_params_refuse_a_genus_that_is_not_an_int():
    """A bool or float genus is refused, as a curve file's "genus": true
    is, instead of being read as genus 1."""
    for genus in (True, 1.0):
        with pytest.raises(ValueError):
            CurveParams(genus, qs(1), qs(0))


def test_shared_u_configuration_degenerate_g2():
    """Same u-polynomial, different v: the difference system is singular."""
    xs = (Q.scalar(1), Q.scalar(3))
    ys = (Q.scalar(2), Q.scalar(5))
    t1 = PointListRep(tuple(zip(xs, ys)), qs(0, 0))
    t2 = PointListRep(((xs[0], -ys[0]), (xs[1], ys[1])), qs(0, 0))
    b1, b2 = viete_phi(t1), viete_phi(t2)
    assert b1.p_even == b2.p_even
    assert anchor(b1) == anchor(b2)
    with pytest.raises(DegenerateConfiguration) as exc:
        star(b1, b2)
    assert exc.value.stage == "h_solve"
