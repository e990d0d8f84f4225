"""Coefficient identities satisfied by the addition law.

The h-coefficients below always refer to the RFunction built inside
`star` for the pair being tested, indexed by co-weight: r.h_at(k) is
the coefficient of the monomial of weight 3g - k, or zero when that
co-weight has no monomial.  Each checker runs `star_detail` once, and
each comparison it makes fails for some wrong product.
"""

from .closedform import g2_add
from .field import Scalar
from .groupoid import GroupoidPoint, StarResult, star_detail


def _p2(a: GroupoidPoint) -> Scalar:
    return a.p_even[-1]


def _p3(a: GroupoidPoint) -> Scalar:
    return a.p_odd[-1]


def _pgg(a1: GroupoidPoint, a2: GroupoidPoint, res: StarResult) -> bool:
    """p2(a1) + p2(a2) + p2(a1*a2) == h1^2 - 2 h2 for res = star_detail(a1, a2)."""
    h1, h2 = res.r.h_at(1), res.r.h_at(2)
    return _p2(a1) + _p2(a2) + _p2(res.point) == h1 * h1 - 2 * h2


def check_pgg_sum(a1: GroupoidPoint, a2: GroupoidPoint) -> bool:
    """The p2 sum rule `_pgg`, any genus."""
    return _pgg(a1, a2, star_detail(a1, a2))


def check_g1_wp_prime_sum(a1: GroupoidPoint, a2: GroupoidPoint) -> bool:
    """Genus-1 odd-coordinate sum rule.

    With P = p2, P' = 2 p3, H = (P'(a1) - P'(a2)) / (P(a1) - P(a2)) and
    a3 the product, -P'(a1) - P'(a2) + P'(a3) must equal both

        -H^3/4 - 3 (P'(a2)P(a1) - P'(a1)P(a2)) / (P(a1) - P(a2))

    and 2(-h1^3 + 3 h1 h2 - 3 h3) in the product's h-coefficients.
    Co-weight 2 is a gap at genus 1, so h2 = 0 and its term drops.
    """
    if a1.genus != 1:
        raise ValueError("genus-1 identity")
    res = star_detail(a1, a2)
    h1, h3 = res.r.h_at(1), res.r.h_at(3)
    p_1, p_2 = _p2(a1), _p2(a2)
    pp_1, pp_2, pp_3 = (2 * _p3(a) for a in (a1, a2, res.point))
    lhs = -pp_1 - pp_2 + pp_3
    big_h = (pp_1 - pp_2) / (p_1 - p_2)
    quarter = a1.field.scalar(1) / a1.field.scalar(4)
    rhs = -quarter * big_h**3 - 3 * (pp_2 * p_1 - pp_1 * p_2) / (p_1 - p_2)
    return lhs == rhs and lhs == 2 * (-(h1**3) - 3 * h3)


def check_zp_consistency(a1: GroupoidPoint, a2: GroupoidPoint) -> bool:
    """Genus-2 consistency of the cubic zeta relation.

    The relation 2 z1s - p222s - 3 p22s z2s + z2s^3 = 0, with z2s = -h1,
    p22s = h1^2 - 2 h2 and z1s = p222s/2 - h1^3 + 3 h1 h2, holds for any
    p222s and h, as its terms cancel, so it is not evaluated.  The two
    comparisons that can fail are made: p22s against h1^2 - 2 h2
    (`_pgg`), and the product's p3 against the w3 of `g2_add`.
    """
    if a1.genus != 2:
        raise ValueError("genus-2 identity")
    res = star_detail(a1, a2)
    return _pgg(a1, a2, res) and _p3(res.point) == _p3(g2_add(a1, a2))
