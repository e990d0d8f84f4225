"""Coefficient identities satisfied by the addition law.

The h-coefficients below always refer to the RFunction built inside
`star` for the pair being tested, indexed by co-weight: r.h_at(k) is
the coefficient of the monomial of weight 3g - k, or zero when that
co-weight has no monomial.  The genus-2 cubic zeta relation is one
Scalar function, `zp_relation`, for `check_zp_consistency` and the tests.
"""

from .closedform import g2_add
from .field import Scalar
from .groupoid import GroupoidPoint, star_detail


def _p2(a: GroupoidPoint) -> Scalar:
    return a.p_even[-1]


def _p3(a: GroupoidPoint) -> Scalar:
    return a.p_odd[-1]


def check_pgg_sum(a1: GroupoidPoint, a2: GroupoidPoint) -> bool:
    """p2(a1) + p2(a2) + p2(a1*a2) == h1^2 - 2 h2, any genus."""
    res = star_detail(a1, a2)
    h1, h2 = res.r.h_at(1), res.r.h_at(2)
    lhs = _p2(a1) + _p2(a2) + _p2(res.point)
    return lhs == h1 * h1 - 2 * h2


def check_g1_wp_prime_sum(a1: GroupoidPoint, a2: GroupoidPoint) -> bool:
    """Genus-1 odd-coordinate sum rule.

    With P = p2 and P' = 2 p3 (so that the third point's P' comes from
    the product), both of these must hold exactly:

        -P'(a1) - P'(a2) + P'(a3) = -H^3/4 - 3 (P'(a2)P(a1) - P'(a1)P(a2)) / (P(a1) - P(a2))

    where H = (P'(a1) - P'(a2)) / (P(a1) - P(a2)), and the same quantity
    equals 2(-h1^3 + 3 h1 h2 - 3 h3) in the product's h-coefficients
    (h2 = 0 identically at genus 1).
    """
    if a1.genus != 1:
        raise ValueError("genus-1 identity")
    res = star_detail(a1, a2)
    h1, h2, h3 = (res.r.h_at(k) for k in (1, 2, 3))
    p_1, p_2 = _p2(a1), _p2(a2)
    pp_1, pp_2 = 2 * _p3(a1), 2 * _p3(a2)
    pp_3 = 2 * _p3(res.point)
    lhs = -pp_1 - pp_2 + pp_3
    big_h = (pp_1 - pp_2) / (p_1 - p_2)
    quarter = a1.field.scalar(1) / a1.field.scalar(4)
    rhs = -quarter * big_h**3 - 3 * (pp_2 * p_1 - pp_1 * p_2) / (p_1 - p_2)
    via_h = 2 * (-(h1**3) + 3 * h1 * h2 - 3 * h3)
    return lhs == rhs and lhs == via_h


def check_zp_consistency(a1: GroupoidPoint, a2: GroupoidPoint) -> bool:
    """Genus-2 consistency of the cubic zeta relation `zp_relation`.

    p22s = h1^2 - 2 h2 is checked against the actual even-coordinate
    sum, and the relation must vanish at p222s = 2(p3(a1) + p3(a2) -
    p3(a3)).  It does so for any p222s, so the product's p3 is also
    checked on its own, against the w3 of the closed form `g2_add`.
    """
    if a1.genus != 2:
        raise ValueError("genus-2 identity")
    res = star_detail(a1, a2)
    h1, h2 = res.r.h_at(1), res.r.h_at(2)
    p22s = _p2(a1) + _p2(a2) + _p2(res.point)
    if p22s != h1 * h1 - 2 * h2 or _p3(res.point) != _p3(g2_add(a1, a2)):
        return False
    p222s = 2 * (_p3(a1) + _p3(a2) - _p3(res.point))
    return zp_relation(h1, h2, p222s).is_zero()


def zp_relation(h1: Scalar, h2: Scalar, p222s: Scalar) -> Scalar:
    """The cubic zeta relation 2 z1s - p222s - 3 p22s z2s + z2s^3, with
    z2s = -h1, p22s = h1^2 - 2 h2 and z1s = p222s/2 - h1^3 + 3 h1 h2.

    It is the zero polynomial in (h1, h2, p222s), which the tests
    confirm by evaluation at random points.
    """
    half = h1.field.scalar(1) / h1.field.scalar(2)
    z2s = -h1
    p22s = h1 * h1 - 2 * h2
    z1s = half * p222s - h1**3 + 3 * h1 * h2
    return 2 * z1s - p222s - 3 * p22s * z2s + z2s**3
