import pytest

from hypadd import GroupoidPoint, Poly, RFunction, identities, make_field, star_detail
from hypadd.groupoid import StarResult
from hypadd.identities import check_g1_wp_prime_sum, check_pgg_sum, check_zp_consistency
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


def off_by_one(part):
    """A star_detail whose answer has one value raised by one: the
    product's p2 or p3 (its last even or odd coordinate), or at genus 1
    R's h3 (the constant of r3)."""
    real = identities.star_detail

    def bump(values):
        return values[:-1] + (values[-1] + 1,)

    def patched(a1, a2):
        res = real(a1, a2)
        p, r = res.point, res.r
        if part == "h3":
            r = RFunction(r.genus, r.r1, r.r2, r.r3 + Poly(r.field, [1]))
        even = bump(p.p_even) if part == "p2" else p.p_even
        odd = bump(p.p_odd) if part == "p3" else p.p_odd
        return StarResult(GroupoidPoint(even, odd, p.z), r)

    return patched


def fails_when_off(monkeypatch, check, genus, part, tag):
    """check holds on a Q pair and an F_10007 pair of the genus, and
    fails on both once star_detail's `part` is off by one."""
    rng = seeded(tag)
    pairs = [q_pair(genus, rng)[1:], fp_pair(P, genus, rng)[1:]]
    for a1, a2 in pairs:
        assert check(a1, a2)
    monkeypatch.setattr(identities, "star_detail", off_by_one(part))
    for a1, a2 in pairs:
        assert not check(a1, a2)


def test_g1_wp_prime_sum_catches_wrong_h3(monkeypatch):
    """An h3 that is off breaks only the h-coefficient form of the
    genus-1 rule: the coordinate form still holds, and the check fails."""
    fails_when_off(monkeypatch, check_g1_wp_prime_sum, 1, "h3", "wp-prime-wrong-h3")


def test_g1_wp_prime_sum_catches_wrong_p3(monkeypatch):
    fails_when_off(monkeypatch, check_g1_wp_prime_sum, 1, "p3", "wp-prime-wrong-p3")


def test_pgg_sum_catches_wrong_p2(monkeypatch):
    fails_when_off(monkeypatch, check_pgg_sum, 2, "p2", "pgg-wrong")


def test_zp_consistency_catches_wrong_p2(monkeypatch):
    """A product whose p2 is off fails the p2 sum rule, while its p3
    still equals g2_add's."""
    fails_when_off(monkeypatch, check_zp_consistency, 2, "p2", "zp-wrong-p2")


def test_zp_consistency_catches_wrong_p3(monkeypatch):
    """A product whose p3 is off fails the comparison with g2_add's p3,
    while the p2 sum rule still holds."""
    fails_when_off(monkeypatch, check_zp_consistency, 2, "p3", "zp-wrong")


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
