"""Divisor-class arithmetic in Mumford coordinates.

This is the classical composition-and-reduction algorithm on pairs
(u, v) with u monic, deg v < deg u and u | v^2 - f.  It is total where
the coordinate addition law is chartbound, so it doubles as the
reference oracle: transporting two coordinate points here, adding, and
transporting back must reproduce `star` whenever the latter is defined.
"""

from .errors import InvariantViolation, NonGenericDivisor, NonzeroRemainder, NotOnJacobian
from .field import FieldSpec
from .groupoid import CurveParams, GroupoidPoint, curve_poly, u_poly, v_poly
from .poly import Poly, xgcd


class MumfordDivisor:
    """Reduced or semi-reduced divisor (u, v): u monic, deg v < deg u."""

    __slots__ = ("u", "v")

    def __init__(self, u: Poly, v: Poly):
        if u.is_zero() or not u.is_monic():
            raise ValueError("u must be monic")
        if not v.degree < u.degree:
            raise ValueError("v must have degree below deg u")
        self.u = u
        self.v = v

    @property
    def field(self) -> FieldSpec:
        return self.u.field

    def __eq__(self, other):
        if not isinstance(other, MumfordDivisor):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return f"MumfordDivisor(u={self.u!r}, v={self.v!r})"


def identity_divisor(field: FieldSpec) -> MumfordDivisor:
    return MumfordDivisor(Poly(field, [1]), Poly(field))


def divisor_valid(d: MumfordDivisor, c: CurveParams) -> bool:
    """The membership invariant: u divides v^2 - f."""
    return ((d.v * d.v - curve_poly(c)) % d.u).is_zero()


def to_mumford(a: GroupoidPoint, c: CurveParams) -> MumfordDivisor:
    """Transport a coordinate point to Mumford form, checking membership."""
    if a.z != c.lambda2:
        raise NotOnJacobian("z vector differs from the curve's lower half")
    d = MumfordDivisor(u_poly(a), v_poly(a))
    if not divisor_valid(d, c):
        raise NotOnJacobian("u does not divide v^2 - f")
    return d


def from_mumford(d: MumfordDivisor, c: CurveParams) -> GroupoidPoint:
    """Transport back; only degree-g divisors have coordinate images."""
    g = c.genus
    if d.u.degree != g:
        raise NonGenericDivisor(f"deg u = {d.u.degree}, need exactly {g}")
    if not divisor_valid(d, c):
        raise NotOnJacobian("u does not divide v^2 - f")
    p_even = tuple(-d.u[i] for i in range(g))
    p_odd = tuple(d.v[i] for i in range(g))
    return GroupoidPoint(p_even, p_odd, c.lambda2)


def cantor_neg(d: MumfordDivisor, c: CurveParams) -> MumfordDivisor:
    return MumfordDivisor(d.u, (-d.v) % d.u)


def cantor_add(d1: MumfordDivisor, d2: MumfordDivisor, c: CurveParams) -> MumfordDivisor:
    """Total group law on divisor classes.

    Composition via two extended gcds gives a semi-reduced sum of degree
    at most deg u1 + deg u2; reduction replaces u by (f - v^2)/u until
    the degree drops to at most g.  All divisions are exact and checked.
    """
    f = curve_poly(c)
    u1, v1 = d1.u, d1.v
    u2, v2 = d2.u, d2.v

    d, e1, e2 = xgcd(u1, u2)
    dd, c1, c2 = xgcd(d, v1 + v2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2

    u, rem = divmod(u1 * u2, dd * dd)
    if not rem.is_zero():
        raise NonzeroRemainder("composition gcd must divide u1*u2")
    v_num = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + f)
    v_half, rem = divmod(v_num, dd)
    if not rem.is_zero():
        raise NonzeroRemainder("composition gcd must divide the v numerator")
    v = v_half % u

    rounds = 0
    while u.degree > c.genus:
        u_next, rem = divmod(f - v * v, u)
        if not rem.is_zero():
            raise NonzeroRemainder("membership invariant broken during reduction")
        u_next = u_next.monic()
        v = (-v) % u_next
        u = u_next
        rounds += 1
        if rounds > 2 * c.genus + 2:
            raise InvariantViolation("reduction failed to terminate")
    return MumfordDivisor(u.monic(), v % u)
