import pytest

from hypadd import (
    CurveParams,
    GroupoidPoint,
    anchor,
    cantor_add,
    from_mumford,
    g1_add,
    g2_add,
    make_field,
    star,
    star_detail,
    to_mumford,
)
from hypadd.closedform import _g2_slope
from hypadd.errors import AnchorMismatch, DegenerateConfiguration, FieldMismatch
from hypadd.groupoid import PointListRep, viete_phi
from tests.conftest import TEST_PRIME, fp_pair, q_pair, seeded
from tests.test_cantor import curve_points

Q = make_field("q")
P = make_field("fp", TEST_PRIME)


def qs(*vals):
    return tuple(Q.scalar(v) for v in vals)


A1 = GroupoidPoint(qs(2), qs(3), qs(0))
A2 = GroupoidPoint(qs(0), qs(1), qs(0))


def test_g1_worked_example():
    assert g1_add(A1, A2) == GroupoidPoint(qs(-1), qs(0), qs(0))
    assert g1_add(A1, A2) == star(A1, A2)


def test_g1_commutes():
    assert g1_add(A2, A1) == g1_add(A1, A2)


def test_g1_matches_star_q():
    rng = seeded("g1-q")
    for _ in range(10):
        c, a1, a2 = q_pair(1, rng)
        assert g1_add(a1, a2) == star(a1, a2)


def test_g1_matches_star_fp():
    rng = seeded("g1-fp")
    for _ in range(25):
        c, a1, a2 = fp_pair(P, 1, rng)
        assert g1_add(a1, a2) == star(a1, a2)


def test_g1_preserves_anchor_fp():
    rng = seeded("g1-anchor")
    for _ in range(100):
        c, a1, a2 = fp_pair(P, 1, rng)
        assert anchor(g1_add(a1, a2)) == anchor(a1)


def test_g1_equal_abscissa_degenerate():
    with pytest.raises(DegenerateConfiguration) as exc:
        g1_add(A1, GroupoidPoint(qs(2), qs(-3), qs(0)))
    assert exc.value.stage == "slope_den"


def test_g1_anchor_mismatch():
    with pytest.raises(AnchorMismatch):
        g1_add(A1, GroupoidPoint(qs(0), qs(2), qs(0)))


def test_g1_genus_check():
    rng = seeded("g1-genus")
    c, b1, b2 = q_pair(2, rng)
    with pytest.raises(ValueError):
        g1_add(b1, b2)


def test_g2_matches_star_q():
    rng = seeded("g2-q")
    for _ in range(10):
        c, a1, a2 = q_pair(2, rng)
        assert g2_add(a1, a2) == star(a1, a2)


def test_g2_matches_star_fp():
    rng = seeded("g2-fp")
    for _ in range(25):
        c, a1, a2 = fp_pair(P, 2, rng)
        assert g2_add(a1, a2) == star(a1, a2)


def test_g2_commutes():
    rng = seeded("g2-comm")
    c, a1, a2 = q_pair(2, rng)
    assert g2_add(a2, a1) == g2_add(a1, a2)


def test_g2_slope_is_the_h1_coefficient():
    """The seed slope of the closed form must equal the h1 coefficient
    used inside star; the opposite sign convention must fail.  Logged
    once: 12/12 agreement for this convention, 0/12 for the negation.
    """
    rng = seeded("g2-slope")
    for _ in range(6):
        c, a1, a2 = q_pair(2, rng)
        h1 = star_detail(a1, a2).r.h_at(1)
        (u4, u2), (u5, u3) = a1.p_even, a1.p_odd
        (v4, v2), (v5, v3) = a2.p_even, a2.p_odd
        num, den = _g2_slope(u2, u3, u4, u5, v2, v3, v4, v5)
        h_val = num / den
        assert h_val == h1
        assert -h_val != h1 or h1 == Q.zero()


def test_g2_shared_u_degenerate():
    for field in (Q, P):
        xs = (field.scalar(1), field.scalar(3))
        ys = (field.scalar(2), field.scalar(5))
        zs = (field.zero(), field.zero())
        t1 = PointListRep(tuple(zip(xs, ys)), zs)
        t2 = PointListRep(((xs[0], -ys[0]), (xs[1], ys[1])), zs)
        b1, b2 = viete_phi(t1), viete_phi(t2)
        with pytest.raises(DegenerateConfiguration) as exc:
            g2_add(b1, b2)
        assert exc.value.stage == "slope_den"


def test_g2_genus_check():
    with pytest.raises(ValueError, match="g2_add needs genus-2 points"):
        g2_add(A1, A2)


def test_g2_anchor_mismatch():
    """Two genus-2 points over different curves are refused before any
    slope is formed."""
    rng = seeded("g2-anchor-mismatch")
    for draw in (lambda: q_pair(2, rng), lambda: fp_pair(P, 2, rng)):
        (_, a, _), (_, b, _) = draw(), draw()
        assert anchor(a) != anchor(b)
        with pytest.raises(AnchorMismatch):
            g2_add(a, b)


@pytest.mark.parametrize("genus, law", [(1, g1_add), (2, g2_add)])
def test_closed_forms_refuse_mixed_inputs_as_star_does(genus, law):
    """A pair over two fields is a FieldMismatch and a pair of two genera
    a "genus mismatch", from the closed forms as from star, in either
    order, before any anchor is compared."""
    rng = seeded(f"closed-mixed-{genus}")
    (_, a, _), (_, b, _), (_, d, _) = fp_pair(P, genus, rng), q_pair(genus, rng), q_pair(3, rng)
    for x, y in ((a, b), (b, a)):
        for add in (star, law):
            with pytest.raises(FieldMismatch):
                add(x, y)
    for x, y in ((b, d), (d, b)):
        for add in (star, law):
            with pytest.raises(ValueError, match="genus mismatch"):
                add(x, y)


# Per (g, p) on the curve with every lambda set to 1, over every ordered
# pair of its points: the pairs the closed form answers, those it refuses
# at "slope_den", and the answered pairs that star refuses at
# "odd_recovery", where the closed form is checked against Cantor.
CLOSED_FORM_OUTCOMES = {
    (1, 3): (4, 5, 0),
    (1, 5): (48, 16, 0),
    (1, 7): (8, 8, 0),
    (1, 11): (144, 25, 0),
    (2, 3): (8, 17, 0),
    (2, 5): (472, 204, 40),
    (2, 7): (484, 92, 0),
}


@pytest.mark.parametrize("genus, p", sorted(CLOSED_FORM_OUTCOMES))
def test_closed_forms_on_every_pair_of_a_small_curve(genus, p):
    """g1_add / g2_add equal star wherever star answers, and Cantor where
    star refuses at odd_recovery; they refuse at slope_den exactly where
    star refuses at h_solve."""
    field = make_field("fp", p)
    c = CurveParams(genus, (field.one(),) * genus, (field.one(),) * genus)
    law, points = g1_add if genus == 1 else g2_add, curve_points(c)
    answered = refused = by_cantor = 0
    for a in points:
        for b in points:
            try:
                want, stage = star(a, b), None
            except DegenerateConfiguration as exc:
                want, stage = None, exc.stage
            try:
                got = law(a, b)
            except DegenerateConfiguration as exc:
                assert (exc.stage, stage) == ("slope_den", "h_solve")
                refused += 1
                continue
            if want is None:
                assert stage == "odd_recovery"
                want = from_mumford(cantor_add(to_mumford(a, c), to_mumford(b, c), c), c)
                by_cantor += 1
            assert got == want
            answered += 1
    assert (answered, refused, by_cantor) == CLOSED_FORM_OUTCOMES[genus, p]
