import pytest

from hypadd import GroupoidPoint, anchor, g1_add, g2_add, make_field, star, star_detail
from hypadd.closedform import _g2_slope
from hypadd.errors import AnchorMismatch, DegenerateConfiguration
from hypadd.groupoid import PointListRep, viete_phi
from tests.conftest import TEST_PRIME, fp_pair, q_pair, seeded

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
    with pytest.raises(ValueError):
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
