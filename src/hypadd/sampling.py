"""Deterministic generation of random curves and on-curve points.

Everything takes an explicit random.Random so that runs are exactly
reproducible.  Over F_p g abscissas x with f(x) a square are drawn by
rejection (TooFewPoints if the curve has fewer), and u and v are
interpolated through the points.  Over the rationals squares are too
sparse for that, so the curve is fitted instead: pick the abscissas and
ordinates freely and interpolate the 2g curve coefficients through them,
or, for a point on a Q template, take the upper half from its anchor.
"""

import random

from .errors import TooFewPoints
from .field import FieldSpec, make_field
from .groupoid import CurveParams, GroupoidPoint, _interpolate, anchor, curve_from_anchor
from .poly import _read_values

BOUND = 9  # Q samples: ordinates from [1, BOUND], abscissas from `_abscissas`


def sqrt_mod(a: int, p: int):
    """A square root of a modulo an odd prime p, or None for non-residues."""
    a %= p
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r if r * r % p == a else None
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


def random_curve_fp(field: FieldSpec, genus: int, rng: random.Random) -> CurveParams:
    p = field.modulus
    lam1 = [rng.randrange(p) for _ in range(genus)]
    return CurveParams._from_values(field, lam1, [rng.randrange(p) for _ in range(genus)])


def sample_point_fp(c: CurveParams, rng: random.Random) -> GroupoidPoint:
    """Rejection-sample g distinct abscissas whose f-values are squares
    (TooFewPoints when fewer than g of the p abscissas qualify)."""
    field, p = c.field, c.field.modulus
    f = c._f[0][::-1]  # descending residues of f
    xs, ys, rejected = [], [], set()
    while len(xs) < c.genus:
        if len(xs) + len(rejected) == p:
            raise TooFewPoints(f"only {len(xs)} of the {p} abscissas have a square f(x)")
        x = rng.randrange(p)
        if x in rejected or x in xs:
            continue
        y2 = 0
        for a in f:
            y2 = y2 * x + a
        root = sqrt_mod(y2, p)  # reduces y2 mod p
        if root is None:
            rejected.add(x)
            continue
        xs.append(x)
        ys.append(-root if rng.getrandbits(1) else root)
    return GroupoidPoint._make(field, *_interpolate(field, xs, ys), c._z)


def fit_curve_through(field: FieldSpec, genus: int, pairs) -> CurveParams:
    """The unique curve of this genus passing through 2g given points.

    Its 2g coefficients interpolate y^2 - x^(2g+1) at the abscissas,
    which must be distinct (SingularMatrix otherwise).
    """
    g = genus
    if len(pairs) != 2 * g:
        raise ValueError(f"expected {2 * g} points, got {len(pairs)}")
    xs = [field._value(x) for x, _ in pairs]
    rhs = [field._value(y) ** 2 - x ** (2 * g + 1) for x, (_, y) in zip(xs, pairs)]
    lam = _read_values(field, _interpolate(field, xs, rhs)[1], 2 * g)
    # unknown i is the x^i coefficient, i.e. weight 4g+2-2i
    return CurveParams._from_values(field, lam[:g], lam[g:])


def _abscissas(rng: random.Random, n: int) -> list:
    """n distinct ints from [-b, b], b = max(BOUND, n // 2), so any n fits."""
    b = max(BOUND, n // 2)
    return rng.sample(range(-b, b + 1), n)


def sample_pair_q(genus: int, rng: random.Random):
    """A rational curve plus two anchored points on it, all with small
    coordinates before the fit."""
    field, g = make_field("q"), genus
    xs = _abscissas(rng, 2 * g)
    ys = [rng.randint(1, BOUND) for _ in xs]
    c = fit_curve_through(field, g, list(zip(xs, ys)))
    a = GroupoidPoint._make(field, *_interpolate(field, xs[:g], ys[:g]), c._z)
    return c, a, GroupoidPoint._make(field, *_interpolate(field, xs[g:], ys[g:]), c._z)


def sample_point_q_on_template(c: CurveParams, rng: random.Random):
    """A rational point plus the curve it lies on: the template's lower
    coefficient half and the upper half of the point's anchor."""
    field, g = c.field, c.genus
    xs = [field._value(x) for x in _abscissas(rng, g)]
    ys = [field._value(rng.randint(1, BOUND)) for _ in xs]
    point = GroupoidPoint._make(field, *_interpolate(field, xs, ys), c._z)
    return curve_from_anchor(g, *anchor(point)), point
