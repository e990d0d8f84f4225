"""Closed-form addition for genus 1 and 2.

These are the fully expanded versions of `star`: no linear solves, just
rational expressions in the input coordinates.  Genus 2 is written in
terms of a seed slope h and its first two images under the shift
operator from `expr.apply_L`; the third image vanishes identically,
which is checked by the tests.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import AnchorMismatch, DegenerateConfiguration, ZeroDenominator
from .expr import Sub, Var, apply_L
from .groupoid import GroupoidPoint, anchor


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


@lru_cache(maxsize=1)
def g2_slope_exprs() -> tuple:
    """The genus-2 seed slope h and its images h' = L(h), h'' = L(h')."""
    u2, u3, u4, u5 = Var("u2"), Var("u3"), Var("u4"), Var("u5")
    v2, v3, v4, v5 = Var("v2"), Var("v3"), Var("v4"), Var("v5")
    num = Sub(
        Sub(v4, u4) * Sub(v4 + v2 * v2, u4 + u2 * u2),
        Sub(v2, u2) * Sub(v2 * v4, u2 * u4),
    )
    den = Sub(Sub(v4, u4) * Sub(v3, u3), Sub(v2, u2) * Sub(v5, u5))
    # The overall sign is pinned by the equality tests against star.
    h = num / den
    hp = apply_L(h)
    hpp = apply_L(hp)
    return h, hp, hpp


def _g2_env(a1: GroupoidPoint, a2: GroupoidPoint) -> dict:
    return {
        "u4": a1.p_even[0],
        "u2": a1.p_even[1],
        "u5": a1.p_odd[0],
        "u3": a1.p_odd[1],
        "v4": a2.p_even[0],
        "v2": a2.p_even[1],
        "v5": a2.p_odd[0],
        "v3": a2.p_odd[1],
    }


def g2_add(a1: GroupoidPoint, a2: GroupoidPoint) -> GroupoidPoint:
    """Closed-form genus-2 addition on (p4, p2, p5, p3) coordinates."""
    if a1.genus != 2 or a2.genus != 2:
        raise ValueError("g2_add needs genus-2 points")
    if anchor(a1) != anchor(a2):
        raise AnchorMismatch("summands sit over different curve parameters")
    field = a1.field
    env = _g2_env(a1, a2)
    h_e, hp_e, hpp_e = g2_slope_exprs()
    try:
        h = h_e.eval(env, field)
        hp = hp_e.eval(env, field)
        hpp = hpp_e.eval(env, field)
    except ZeroDenominator as exc:
        raise DegenerateConfiguration("slope denominator vanishes", stage="slope_den") from exc

    half = _half(field)
    quarter = field.scalar(Fraction(1, 4))
    eighth = field.scalar(Fraction(1, 8))
    frac54 = field.scalar(Fraction(5, 4))
    frac32 = field.scalar(Fraction(3, 2))
    u4, u2 = a1.p_even
    u5, u3 = a1.p_odd
    v4, v2 = a2.p_even
    v5, v3 = a2.p_odd

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
