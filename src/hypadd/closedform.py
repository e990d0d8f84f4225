"""Closed-form addition for genus 1 and 2.

These are the fully expanded versions of `star`: no linear solves, just
rational expressions in the input coordinates.  Genus 2 is written in
terms of a seed slope h and its images h' = L(h), h'' = L(h') under the
shift operator L = 1/2 [(u3 - v3)(d/du2 - d/dv2) + (u5 - v5)(d/du4 - d/dv4)].
Its coefficients involve only u3, v3, u5 and v5, which L does not
differentiate, so L is d/dt along the fixed direction d = L(p):
h(p + t*d) = h + t*h' + (t^2/2)*h''.  With the slope N/D evaluated at
t = 0, 1 and -1, h = N(0)/D, h' = (N(1) - N(-1))/(2D) and h'' = (N(1) +
N(-1) - 2N(0))/D.  That is exact, as N is quadratic in t (the t^2 term
of v2 v4 - u2 u4 cancels) and D is constant in t (its t term cancels),
which the acceptance suite checks with `_g2_slope` on polynomials in t.

Both laws compute on bare values from `poly._read_values`: residues over
F_p, with h, h' and h'' reduced mod p, and Fractions over Q; 1/2, ...,
5/4 come from the inverse of 2.  Only the answer is boxed, as pairs.
"""

from .errors import AnchorMismatch, DegenerateConfiguration
from .field import _inverse_value
from .groupoid import GroupoidPoint, _anchor_division, _common_field
from .poly import _read_values


def _summands(a1: GroupoidPoint, a2: GroupoidPoint, genus: int):
    """The modulus and each point's bare p_even + p_odd, for two points of
    one genus on one curve, refused as `star` refuses them."""
    field = _common_field(a1, a2)
    if a1.genus != genus:
        raise ValueError(f"g{genus}_add needs genus-{genus} points")
    if a1._z != a2._z or _anchor_division(a1)[1] != _anchor_division(a2)[1]:
        raise AnchorMismatch("summands sit over different curve parameters")
    read = (_read_values(field, a._u, genus, -1) + _read_values(field, a._v, genus) for a in (a1, a2))
    return field.modulus, *read


def _reduced(p: int, *values) -> list:
    """values mod p over F_p; over Q (p = 0) as they are."""
    return [v % p for v in values] if p else list(values)


def g1_add(a1: GroupoidPoint, a2: GroupoidPoint) -> GroupoidPoint:
    """Chord law on (p2, p3) coordinates."""
    p, (u2, u3), (v2, v3) = _summands(a1, a2, 1)
    if u2 == v2:
        raise DegenerateConfiguration("equal abscissa coordinates", stage="slope_den")
    (h,), half = _reduced(p, (v3 - u3) * _inverse_value(v2 - u2, p)), _inverse_value(2, p)
    w2 = -(u2 + v2) + h * h
    w3 = -half * (u3 + v3) + 3 * half * (u2 + v2) * h - h**3
    return GroupoidPoint._from_values(a1.field, [-w2, 1], [w3], a1._z)


def _g2_slope(u2, u3, u4, u5, v2, v3, v4, v5) -> tuple:
    """Numerator and denominator of the genus-2 seed slope h.

    Built from +, - and * only, so it runs on bare values, Scalars and
    `Poly`s.  The overall sign is pinned by the equality tests against star.
    """
    num = (v4 - u4) * ((v4 + v2 * v2) - (u4 + u2 * u2)) - (v2 - u2) * (v2 * v4 - u2 * u4)
    den = (v4 - u4) * (v3 - u3) - (v2 - u2) * (v5 - u5)
    return num, den


def g2_add(a1: GroupoidPoint, a2: GroupoidPoint) -> GroupoidPoint:
    """Closed-form genus-2 addition on (p4, p2, p5, p3) coordinates."""
    p, (u4, u2, u5, u3), (v4, v2, v5, v3) = _summands(a1, a2, 2)
    half = _inverse_value(2, p)
    # The slope at the point moved by t*d: d = L moves u2, v2 by +-d2 and u4, v4 by +-d4.
    d2, d4 = _reduced(p, half * (u3 - v3), half * (u5 - v5))
    (n0, den), (n1, _), (nm1, _) = (
        _g2_slope(u2 + t * d2, u3, u4 + t * d4, u5, v2 - t * d2, v3, v4 - t * d4, v5)
        for t in (0, 1, -1)
    )
    (den,) = _reduced(p, den)
    if not den:
        raise DegenerateConfiguration("slope denominator vanishes", stage="slope_den")
    inv = _inverse_value(den, p)
    h, hp, hpp = _reduced(p, n0 * inv, (n1 - nm1) * half * inv, (n1 + nm1 - 2 * n0) * inv)

    quarter, eighth = _reduced(p, half * half, half**3)
    frac54, frac32 = 5 * quarter, 3 * half
    s2, s3, s4, s5 = u2 + v2, u3 + v3, u4 + v4, u5 + v5

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
    return GroupoidPoint._from_values(a1.field, [-w4, -w2, 1], [w5, w3], a1._z)
