"""Deterministic generation of random curves and on-curve points.

Everything takes an explicit random.Random so that runs are exactly
reproducible.  Over F_p points come from rejection sampling on quadratic
residues of a fixed curve; over the rationals squares are too sparse for
that, so the curve is solved for instead: pick the abscissas and
ordinates freely and fit the 2g curve coefficients through them.
"""

import random

from .errors import SqrtOverRationals
from .field import FieldSpec, Scalar
from .groupoid import CurveParams, GroupoidPoint, PointListRep, curve_poly, viete_phi
from .linalg import solve, vandermonde


def sqrt_mod(a: int, p: int):
    """A square root of a modulo an odd prime p, or None for non-residues."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
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


def scalar_sqrt(s: Scalar):
    """Square root in F_p, or None; raises SqrtOverRationals over Q."""
    if s.field.modulus == 0:
        raise SqrtOverRationals("use curve fitting over the rationals")
    root = sqrt_mod(s.value, s.field.modulus)
    if root is None:
        return None
    return s.field.scalar(root)


def random_curve_fp(field: FieldSpec, genus: int, rng: random.Random) -> CurveParams:
    p = field.modulus
    lam1 = tuple(field.scalar(rng.randrange(p)) for _ in range(genus))
    lam2 = tuple(field.scalar(rng.randrange(p)) for _ in range(genus))
    return CurveParams(genus, lam1, lam2)


def sample_point_fp(c: CurveParams, rng: random.Random) -> GroupoidPoint:
    """Rejection-sample g distinct abscissas whose f-values are squares."""
    field = c.field
    p = field.modulus
    f = curve_poly(c)
    pairs = []
    used = set()
    while len(pairs) < c.genus:
        x = rng.randrange(p)
        if x in used:
            continue
        y2 = f(field.scalar(x))
        root = scalar_sqrt(y2)
        if root is None:
            continue
        used.add(x)
        y = -root if rng.getrandbits(1) else root
        pairs.append((field.scalar(x), y))
    return viete_phi(PointListRep(pairs, c.lambda2))


def fit_curve_through(field: FieldSpec, genus: int, pairs) -> CurveParams:
    """The unique curve of this genus passing through 2g given points.

    The curve equation is linear in its 2g coefficients, and distinct
    abscissas make the system a nonsingular Vandermonde.
    """
    g = genus
    if len(pairs) != 2 * g:
        raise ValueError(f"expected {2 * g} points, got {len(pairs)}")
    rhs = [y * y - x ** (2 * g + 1) for x, y in pairs]
    lam = solve(vandermonde(field, [x for x, _ in pairs]), rhs)
    # unknown i is the x^i coefficient, i.e. weight 4g+2-2i
    lambda1 = tuple(lam[:g])
    lambda2 = tuple(lam[g : 2 * g])
    return CurveParams(g, lambda1, lambda2)


def _distinct_ints(rng: random.Random, count: int, lo: int, hi: int):
    xs = rng.sample(range(lo, hi + 1), count)
    return xs


def sample_pair_q(genus: int, rng: random.Random, bound: int = 9):
    """A rational curve plus two anchored points on it, all with small
    coordinates before the fit."""
    from .field import make_field

    field = make_field("q")
    g = genus
    xs = _distinct_ints(rng, 2 * g, -bound, bound)
    pairs = [
        (field.scalar(x), field.scalar(rng.randint(1, bound)))
        for x in xs
    ]
    c = fit_curve_through(field, g, pairs)
    a1 = viete_phi(PointListRep(pairs[:g], c.lambda2))
    a2 = viete_phi(PointListRep(pairs[g:], c.lambda2))
    return c, a1, a2


def sample_point_q_on_template(c: CurveParams, rng: random.Random, bound: int = 9):
    """A rational point plus the curve it lies on, keeping the template's
    lower coefficient half and re-solving the upper half."""
    field = c.field
    g = c.genus
    xs = _distinct_ints(rng, g, -bound, bound)
    pairs = [(field.scalar(x), field.scalar(rng.randint(1, bound))) for x in xs]
    # g linear conditions on the g upper coefficients
    rhs = []
    for x, y in pairs:
        lower = field.zero()
        for i, lam in enumerate(c.lambda2):
            lower = lower + lam * x ** (g + i)
        rhs.append(y * y - x ** (2 * g + 1) - lower)
    lam1 = solve(vandermonde(field, [x for x, _ in pairs]), rhs)
    fitted = CurveParams(g, tuple(lam1), c.lambda2)
    point = viete_phi(PointListRep(pairs, fitted.lambda2))
    return fitted, point
