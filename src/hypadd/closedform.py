"""Closed-form addition for genus 1 and 2.

These are the fully expanded versions of `star`: no linear solves, just
rational expressions in the input coordinates.  Genus 2 is written in
terms of a seed slope h and its images h' = L(h), h'' = L(h') under the
shift operator L of `expr.apply_L`.  L differentiates only u2, v2, u4
and v4, with coefficients in u3, v3, u5 and v5 alone, so it is d/dt
along the fixed direction d = L(p): h(p + t*d) = h + t*h' + (t^2/2)*h''.
`g2_add` reads h, h' and h'' off one evaluation of the slope on
polynomials in t; its denominator is constant along L.  The expression
trees of `g2_slope_exprs` are kept as the tests' oracle for that
tangency identity and for L(h'') = 0.
"""

from fractions import Fraction

from .errors import AnchorMismatch, DegenerateConfiguration
from .expr import APPLY_L_VARS, Var, apply_L
from .groupoid import GroupoidPoint, anchor
from .poly import Poly


def _half(field):
    return field.scalar(Fraction(1, 2))


def g1_add(a1: GroupoidPoint, a2: GroupoidPoint) -> GroupoidPoint:
    """Chord law on (p2, p3) coordinates."""
    if a1.genus != 1 or a2.genus != 1:
        raise ValueError("g1_add needs genus-1 points")
    if anchor(a1) != anchor(a2):
        raise AnchorMismatch("summands sit over different curve parameters")
    field = a1.field
    u2, u3 = a1.p_even[0], a1.p_odd[0]
    v2, v3 = a2.p_even[0], a2.p_odd[0]
    if u2 == v2:
        raise DegenerateConfiguration("equal abscissa coordinates", stage="slope_den")
    h = (v3 - u3) / (v2 - u2)
    w2 = -(u2 + v2) + h * h
    w3 = -_half(field) * (u3 + v3) + field.scalar(Fraction(3, 2)) * (u2 + v2) * h - h**3
    return GroupoidPoint((w2,), (w3,), a1.z)


def _g2_slope(u2, u3, u4, u5, v2, v3, v4, v5) -> tuple:
    """Numerator and denominator of the genus-2 seed slope h.

    Built from +, - and * only, so it runs on `Var`s and on `Poly`s.
    The overall sign is pinned by the equality tests against star.
    """
    num = (v4 - u4) * ((v4 + v2 * v2) - (u4 + u2 * u2)) - (v2 - u2) * (v2 * v4 - u2 * u4)
    den = (v4 - u4) * (v3 - u3) - (v2 - u2) * (v5 - u5)
    return num, den


def g2_slope_exprs() -> tuple:
    """The genus-2 seed slope h and its images h' = L(h), h'' = L(h')."""
    num, den = _g2_slope(*[Var(name) for name in APPLY_L_VARS])
    h = num / den
    hp = apply_L(h)
    return h, hp, apply_L(hp)


def g2_add(a1: GroupoidPoint, a2: GroupoidPoint) -> GroupoidPoint:
    """Closed-form genus-2 addition on (p4, p2, p5, p3) coordinates."""
    if a1.genus != 2 or a2.genus != 2:
        raise ValueError("g2_add needs genus-2 points")
    if anchor(a1) != anchor(a2):
        raise AnchorMismatch("summands sit over different curve parameters")
    field = a1.field
    half = _half(field)
    u4, u2 = a1.p_even
    u5, u3 = a1.p_odd
    v4, v2 = a2.p_even
    v5, v3 = a2.p_odd

    # The slope at p + t*d: d = L(p) moves u2, v2 by +-d2 and u4, v4 by +-d4.
    d2, d4 = half * (u3 - v3), half * (u5 - v5)
    moved = ((u2, d2), (u3,), (u4, d4), (u5,), (v2, -d2), (v3,), (v4, -d4), (v5,))
    num, den = _g2_slope(*[Poly(field, c) for c in moved])
    if den.is_zero():
        raise DegenerateConfiguration("slope denominator vanishes", stage="slope_den")
    inv = den[0].inverse()
    h, hp, hpp = num[0] * inv, num[1] * inv, 2 * num[2] * inv

    quarter = field.scalar(Fraction(1, 4))
    eighth = field.scalar(Fraction(1, 8))
    frac54 = field.scalar(Fraction(5, 4))
    frac32 = field.scalar(Fraction(3, 2))

    s2 = u2 + v2
    s3 = u3 + v3
    s4 = u4 + v4
    s5 = u5 + v5

    w2 = half * s2 + h * h - hp
    w3 = half * s3 - frac54 * s2 * h - h**3 + frac32 * h * hp - half * hpp
    w4 = (
        -half * s4
        - u2 * v2
        + eighth * s2 * s2
        - s3 * h
        + quarter * s2 * hp
        + s2 * h * h
        - half * h * hpp
    )
    w5 = (
        -half * s5
        - half * (u2 * v3 + u3 * v2)
        + (eighth * s2 * s2 + u2 * v2 + half * s4) * h
        - half * s3 * hp
        + s3 * h * h
        + eighth * s2 * hpp
        + quarter * s2 * h * hp
        - s2 * h**3
        - quarter * hp * hpp
        + half * h * h * hpp
    )
    return GroupoidPoint((w4, w2), (w5, w3), a1.z)
