"""Divisor-class arithmetic in Mumford coordinates.

This is the classical composition-and-reduction algorithm on pairs
(u, v) with u monic, deg v < deg u and u | v^2 - f.  It is total where
the coordinate addition law is chartbound, so it doubles as the
reference oracle: transporting two coordinate points here, adding, and
transporting back must reproduce `star` whenever the latter is defined.

The entry points check fields (FieldMismatch) and pass the kernel pairs
of divisors, points and the curve (f) through, so the round trip builds
no Scalar and `cantor_add` no Poly; `cantor_add` also refuses an input
with u not dividing v^2 - f.  Composition (Cantor, Math. Comp. 48, 1987) is:

    (d, e1) = xgcd(u1, u2), e1 u1 = d (mod u2); when d = 1, dd = 1,
    s1 = e1 and s3 = 0, else (dd, s3) = xgcd(v1 + v2, d) and
    s1 = e1 (dd - s3 (v1 + v2)) / d
    u = (u1 / dd) (u2 / dd),  X = s1 (v2 - v1) + s3 (f - v1^2) / u1
    v = v1 + (u1 / dd) (X mod u2 / dd), reduced mod u unless dd = 1

This is the textbook v = (s1 u1 v2 + s2 u2 v1 + s3 (v1 v2 + f)) / dd
with s2 u2 eliminated through s1 u1 + s2 u2 + s3 (v1 + v2) = dd, so it
needs no second cofactor of either gcd and no degree-3g numerator.
"""

from .errors import FieldMismatch, InvariantViolation, NonGenericDivisor, NonzeroRemainder
from .errors import NotOnJacobian
from .field import FieldSpec, _Value
from .groupoid import CurveParams, GroupoidPoint
from .poly import Poly, _add, _divmod, _monic, _mul, _neg, xgcd


class MumfordDivisor(_Value):
    """Reduced or semi-reduced divisor (u, v): u monic, deg v < deg u, held
    as the field and two kernel pairs, which `.u` and `.v` box as Polys."""

    __slots__ = ("field", "_u", "_v")

    def __init__(self, u: Poly, v: Poly):
        if v.field is not u.field and v.field != u.field:
            raise FieldMismatch("u and v over different fields")
        if u.is_zero() or not u.is_monic():
            raise ValueError("u must be monic")
        if not v.degree < u.degree:
            raise ValueError("v must have degree below deg u")
        self.field, self._u, self._v = u.field, (u._values, u._den), (v._values, v._den)

    u = property(lambda self: Poly._make(self.field, *self._u))
    v = property(lambda self: Poly._make(self.field, *self._v))

    def __repr__(self):
        return f"MumfordDivisor(u={self.u!r}, v={self.v!r})"


def identity_divisor(field: FieldSpec) -> MumfordDivisor:
    return MumfordDivisor(Poly(field, [1]), Poly(field))


def _modulus(c: CurveParams, *args) -> int:
    """The curve's modulus, once each divisor or point lies over its field."""
    for x in args:
        if x.field is not c.field and x.field != c.field:
            raise FieldMismatch(f"input over {x.field}, curve over {c.field}")
    return c.field.modulus


def _exact(quotient_remainder, what: str):
    """The quotient of a `_divmod` whose remainder must be zero."""
    quotient, remainder = quotient_remainder
    if remainder[0]:
        raise NonzeroRemainder(what)
    return quotient


def _norm_quotient(u, v, f, p: int):
    """divmod(f - v^2, u): the remainder is zero exactly when u | v^2 - f."""
    return _divmod(*_add(*f, *_mul(*v, *v, p), p, -1), *u, p)


def divisor_valid(d: MumfordDivisor, c: CurveParams) -> bool:
    """The membership invariant: u divides v^2 - f."""
    return not _norm_quotient(d._u, d._v, c._f, _modulus(c, d))[1][0]


def to_mumford(a: GroupoidPoint, c: CurveParams) -> MumfordDivisor:
    """Transport a coordinate point to Mumford form, checking membership:
    z is c's lower half and u divides v^2 - f."""
    if a._z != c._z or _norm_quotient(a._u, a._v, c._f, _modulus(c, a))[1][0]:
        raise NotOnJacobian("z differs from the curve's lower half, or u does not divide v^2 - f")
    return MumfordDivisor._make(c.field, a._u, a._v)


def from_mumford(d: MumfordDivisor, c: CurveParams) -> GroupoidPoint:
    """Transport back; only degree-g divisors have coordinate images."""
    _modulus(c, d)
    if len(d._u[0]) != c.genus + 1:
        raise NonGenericDivisor(f"deg u = {len(d._u[0]) - 1}, need exactly {c.genus}")
    if not divisor_valid(d, c):
        raise NotOnJacobian("u does not divide v^2 - f")
    return GroupoidPoint._make(c.field, d._u, d._v, c._z)


def cantor_neg(d: MumfordDivisor, c: CurveParams) -> MumfordDivisor:
    return MumfordDivisor._make(c.field, d._u, _neg(d._v, _modulus(c, d)))


def cantor_add(d1: MumfordDivisor, d2: MumfordDivisor, c: CurveParams) -> MumfordDivisor:
    """Total group law on divisor classes.

    Composition by the module docstring's formula gives a semi-reduced
    sum of degree at most deg u1 + deg u2; reduction replaces u by
    (f - v^2)/u until the degree drops to at most g.  All divisions are
    exact and checked.  An invalid input raises NotOnJacobian: when
    gcd(u1, u2) = 1, u1 u2 | v^2 - f holds exactly when both inputs are
    valid (CRT), so the first reduction division is the input check.
    """
    p, f, g = _modulus(c, d1, d2), c._f, c.genus
    (u1, v1), (u2, v2) = (d1._u, d1._v), (d2._u, d2._v)

    d, s1 = xgcd(*u1, *u2, p)
    dd, s3, w1, w2 = ((1,), 1), ((), 1), u1, u2  # w1, w2 = u1 / dd, u2 / dd
    coprime = len(d[0]) == 1
    if not coprime:
        (k1, r1), (_, r2) = _norm_quotient(u1, v1, f, p), _norm_quotient(u2, v2, f, p)
        if r1[0] or r2[0]:
            raise NotOnJacobian("an input fails u | v^2 - f")
        vs = _add(*v1, *v2, p)
        dd, s3 = xgcd(*vs, *d, p)
        if len(dd[0]) > 1:
            what = "composition gcd must divide u1 and u2"
            w1, w2 = (_exact(_divmod(*w, *dd, p), what) for w in (u1, u2))
        c1 = _divmod(*_add(*dd, *_mul(*s3, *vs, p), p, -1), *d, p)
        s1 = _mul(*_exact(c1, "gcd(u1, u2) must divide dd - s3 (v1 + v2)"), *s1, p)
    x = _mul(*s1, *_add(*v2, *v1, p, -1), p)
    if s3[0]:
        x = _add(*x, *_mul(*s3, *k1, p), p)
    u = _mul(*w1, *w2, p)
    v = _add(*v1, *_mul(*w1, *_divmod(*x, *w2, p)[1], p), p)
    if len(dd[0]) > 1:
        v = _divmod(*v, *u, p)[1]
    if coprime and len(u[0]) <= g + 1 and _norm_quotient(u, v, f, p)[1][0]:
        raise NotOnJacobian("an input fails u | v^2 - f")

    rounds = 0
    while len(u[0]) > g + 1:
        k, r = _norm_quotient(u, v, f, p)
        if r[0]:
            if coprime and not rounds:
                raise NotOnJacobian("an input fails u | v^2 - f")
            raise NonzeroRemainder("membership invariant broken during reduction")
        u = _monic(k[0], p)
        v = _divmod(*_neg(v, p), *u, p)[1]
        rounds += 1
        if rounds > 2 * g + 2:
            raise InvariantViolation("reduction failed to terminate")
    return MumfordDivisor._make(c.field, u, v)
