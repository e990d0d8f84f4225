import random

import pytest

from hypadd import GroupoidPoint, identities, make_field, star_detail
from hypadd.groupoid import StarResult
from hypadd.identities import (
    check_g1_wp_prime_sum,
    check_pgg_sum,
    check_zp_consistency,
    zp_relation,
)
from tests.conftest import TEST_PRIME, fp_pair, q_pair, seeded

Q = make_field("q")
P = make_field("fp", TEST_PRIME)


def qs(*vals):
    return tuple(Q.scalar(v) for v in vals)


A1 = GroupoidPoint(qs(2), qs(3), qs(0))
A2 = GroupoidPoint(qs(0), qs(1), qs(0))


def test_extract_h_worked_g1():
    r = star_detail(A1, A2).r
    assert r.h_at(0) == Q.one()
    assert r.h_at(1) == Q.one()
    assert r.h_at(2) == Q.zero()
    assert r.h_at(3) == Q.one()
    assert r.h_at(99) == Q.zero()


def test_genus1_h2_is_structurally_zero():
    # co-weight 2 is a gap slot for genus 1
    rng = seeded("h2-gap")
    for _ in range(5):
        c, a1, a2 = q_pair(1, rng)
        assert star_detail(a1, a2).r.h_at(2) == Q.zero()


def test_genus2_h3_is_structurally_zero():
    rng = seeded("h3-gap")
    for _ in range(5):
        c, a1, a2 = q_pair(2, rng)
        assert star_detail(a1, a2).r.h_at(3) == Q.zero()


def test_pgg_sum_worked_g1():
    # p2 sums: 2 + 0 + (-1) = 1 = h1^2 - 2 h2 = 1 - 0
    assert check_pgg_sum(A1, A2)


def test_pgg_sum_random():
    rng = seeded("pgg")
    for g in (1, 2, 3):
        for _ in range(4):
            c, a1, a2 = q_pair(g, rng)
            assert check_pgg_sum(a1, a2)
        c, b1, b2 = fp_pair(P, g, rng)
        assert check_pgg_sum(b1, b2)


def test_g1_wp_prime_sum_worked():
    assert check_g1_wp_prime_sum(A1, A2)


def test_g1_wp_prime_sum_random():
    rng = seeded("wp-prime")
    for _ in range(6):
        c, a1, a2 = q_pair(1, rng)
        assert check_g1_wp_prime_sum(a1, a2)
    for _ in range(6):
        c, b1, b2 = fp_pair(P, 1, rng)
        assert check_g1_wp_prime_sum(b1, b2)


def test_zp_consistency_random():
    rng = seeded("zp")
    for _ in range(6):
        c, a1, a2 = q_pair(2, rng)
        assert check_zp_consistency(a1, a2)
    for _ in range(6):
        c, b1, b2 = fp_pair(P, 2, rng)
        assert check_zp_consistency(b1, b2)


def test_zp_consistency_catches_wrong_p3(monkeypatch):
    """A product whose p3 is off fails the check; the cubic relation
    alone cannot see it, because it holds for any p3."""
    real = identities.star_detail

    def wrong_p3(a1, a2):
        res = real(a1, a2)
        p = res.point
        odd = p.p_odd[:-1] + (p.p_odd[-1] + 1,)
        return StarResult(GroupoidPoint(p.p_even, odd, p.z), res.r)

    rng = seeded("zp-wrong")
    pairs = [q_pair(2, rng)[1:], fp_pair(P, 2, rng)[1:]]
    for a1, a2 in pairs:
        assert check_zp_consistency(a1, a2)
    monkeypatch.setattr(identities, "star_detail", wrong_p3)
    for a1, a2 in pairs:
        assert not check_zp_consistency(a1, a2)


def test_zp_formal_expression_vanishes():
    """Schwartz-Zippel over a large prime: the relation that
    check_zp_consistency evaluates is the zero polynomial in
    (h1, h2, p222s)."""
    big = make_field("fp", 2**31 - 1)
    rng = random.Random("zp-formal")
    for _ in range(40):
        h1, h2, p222s = (big.scalar(rng.randrange(big.modulus)) for _ in range(3))
        assert zp_relation(h1, h2, p222s) == big.zero()


def test_identities_refuse_the_wrong_genus():
    """Each identity holds at one genus, and refuses points of another
    with a ValueError that names its genus."""
    rng = seeded("identity-genus")
    _, b1, b2 = q_pair(2, rng)
    with pytest.raises(ValueError, match="genus-1 identity"):
        check_g1_wp_prime_sum(b1, b2)
    for genus in (1, 3):
        _, a1, a2 = q_pair(genus, rng)
        with pytest.raises(ValueError, match="genus-2 identity"):
            check_zp_consistency(a1, a2)
