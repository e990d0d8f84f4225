import random

from hypadd import groupoid
from hypadd.linalg import _solve_rows
from hypadd.poly import _ints, _read
from hypadd.sampling import random_curve_fp, sample_pair_q, sample_point_fp

TEST_PRIME = 10007


def fp_pair(field, genus, rng):
    """A curve and two points on it over a prime field."""
    c = random_curve_fp(field, genus, rng)
    return c, sample_point_fp(c, rng), sample_point_fp(c, rng)


q_pair = sample_pair_q


def seeded(tag: str) -> random.Random:
    return random.Random(f"hypadd-tests:{tag}")


def vandermonde_solve(field, xs, ys) -> tuple:
    """The Scalars c with sum_j c_j x_i^j = y_i for distinct abscissas, by
    one `_solve_rows` call on the int Vandermonde rows (1, x_i, ...,
    x_i^(n-1) | y_i), each cleared of its denominators over Q: a
    reference for interpolation that shares no code with `_interpolate`.
    A repeated abscissa raises SingularMatrix."""
    p, n = field.modulus, len(xs)
    rows = []
    for x, y in zip(xs, ys):
        x = field._value(x)
        rows.append(_ints([x**j for j in range(n)] + [field._value(y)], p)[0])
    return _read(field, _solve_rows(rows, n, p), n)


def bump_anchor_quotient(monkeypatch):
    """Double the leading coefficient of q_a, the anchor check's quotient
    of w^2 - f_high (degree 2g + 1) by u: the only quotient of degree
    deg u + 1 that star computes before its norm."""
    real = groupoid._divmod

    def bumped(a, da, b, db, p):
        (q, dq), r = real(a, da, b, db, p)
        if len(q) == len(b) + 1:
            q = q[:-1] + (2 * q[-1],)
        return (q, dq), r

    monkeypatch.setattr(groupoid, "_divmod", bumped)


def shift_g2_low(monkeypatch):
    """f's low half off by one at every genus-2 F_p input: star's
    straight-line route then finds f - V^2 not divisible by u1 u2."""
    real = groupoid._g2_low

    def shifted(u, v, z, p):
        f0, f1 = real(u, v, z, p)
        return (f0 + 1) % p, f1

    monkeypatch.setattr(groupoid, "_g2_low", shifted)
