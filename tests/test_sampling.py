import contextlib
import hashlib
import io
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from hypadd import anchor, cli, divisor_valid, make_field, to_mumford
from hypadd.errors import RepeatedAbscissa, SingularMatrix, TooFewPoints
from hypadd.groupoid import (
    CurveParams,
    GroupoidPoint,
    PointListRep,
    _interpolate,
    u_poly,
    v_poly,
    viete_phi,
)
from hypadd.poly import _read, from_roots
from hypadd.sampling import (
    fit_curve_through,
    random_curve_fp,
    sample_pair_q,
    sample_point_fp,
    sample_point_q_on_template,
    sqrt_mod,
)
from tests.conftest import TEST_PRIME, seeded, vandermonde_solve

Q = make_field("q")
P = make_field("fp", TEST_PRIME)
F5 = make_field("fp", 5)
F7 = make_field("fp", 7)


def test_sqrt_mod():
    """A root for every square and None for every non-residue, against
    the brute-force squares.  7 and 11 take the p = 3 (mod 4) branch;
    13, 17 and 41 run Tonelli-Shanks, with s >= 3 at 17 and 41."""
    for p in (7, 11, 13, 17, 41):
        squares = {x * x % p for x in range(p)}
        for a in range(-p, 2 * p):
            r = sqrt_mod(a, p)
            if a % p in squares:
                assert r is not None and r * r % p == a % p
            else:
                assert r is None


def test_sample_point_fp_is_on_curve():
    rng = seeded("fp-sample")
    for g in (1, 2, 3):
        c = random_curve_fp(P, g, rng)
        a = sample_point_fp(c, rng)
        assert anchor(a) == (c.lambda1, c.lambda2)
        d = to_mumford(a, c)
        assert divisor_valid(d, c)
        assert d.u.degree == g


def test_sample_pair_q_shares_anchor():
    rng = seeded("q-sample")
    for g in (1, 2, 3):
        c, a1, a2 = sample_pair_q(g, rng)
        assert anchor(a1) == (c.lambda1, c.lambda2)
        assert anchor(a2) == (c.lambda1, c.lambda2)
        assert a1 != a2
        assert divisor_valid(to_mumford(a1, c), c)


def test_fit_curve_through():
    rng = seeded("fit")
    g = 2
    pairs = []
    xs = set()
    while len(pairs) < 2 * g:
        x = rng.randint(-9, 9)
        if x in xs:
            continue
        xs.add(x)
        pairs.append((Q.scalar(x), Q.scalar(rng.randint(1, 9))))
    c = fit_curve_through(Q, g, pairs)
    from hypadd.groupoid import curve_poly

    f = curve_poly(c)
    for x, y in pairs:
        assert f(x) == y * y
    with pytest.raises(ValueError):
        fit_curve_through(Q, g, pairs[:-1])


def test_sample_point_q_on_template_keeps_lambda2():
    rng = seeded("template")
    base, a0, _ = sample_pair_q(2, rng)
    fitted, a = sample_point_q_on_template(base, rng)
    assert fitted.lambda2 == base.lambda2
    assert anchor(a) == (fitted.lambda1, fitted.lambda2)


def test_point_polynomials_have_expected_shape():
    rng = seeded("shape")
    c, a, _ = sample_pair_q(3, rng)
    assert u_poly(a).degree == 3
    assert u_poly(a).is_monic()
    assert v_poly(a).degree <= 2


def assert_canonical(field, pair, n):
    """pair is a canonical kernel pair of at most n coefficients: ints with
    no trailing zero, residues over 1 on F_p, and on Q a positive
    denominator with content 1."""
    nums, den = pair
    assert type(nums) is tuple and len(nums) <= n and (not nums or nums[-1])
    assert all(type(c) is int for c in nums + (den,))
    if field.modulus:
        assert den == 1 and all(0 <= c < field.modulus for c in nums)
    else:
        assert den > 0 and gcd(den, *nums) == 1


@st.composite
def nodes(draw):
    """A field, 1 to 6 distinct abscissas and as many ordinates."""
    field = draw(st.sampled_from([Q, F7, P]))
    n = draw(st.integers(1, 6))
    if field is Q:
        values = st.fractions(-20, 20, max_denominator=4)
    else:
        values = st.integers(0, field.modulus - 1)
    xs = draw(st.lists(values, min_size=n, max_size=n, unique=True))
    ys = draw(st.lists(values, min_size=n, max_size=n))
    return field, xs, ys


@given(nodes())
def test_interpolate_matches_vandermonde_solve(case):
    field, xs, ys = case
    n = len(xs)
    u, v = _interpolate(field, [field._value(x) for x in xs], [field._value(y) for y in ys])
    assert _read(field, u, n + 1) == from_roots(field, xs).coeffs
    assert _read(field, v, n) == vandermonde_solve(field, xs, ys)
    assert_canonical(field, u, n + 1)
    assert_canonical(field, v, n)
    z = [field.scalar(0)] * n
    pairs = [(field.scalar(x), field.scalar(y)) for x, y in zip(xs, ys)]
    a = viete_phi(PointListRep(pairs, z))
    assert a == GroupoidPoint([-c for c in _read(field, u, n)], _read(field, v, n), z)


def test_two_point_fp_interpolation_matches_vandermonde_solve():
    """`_interpolate`'s two-point F_p branch gives u = (x - x0)(x - x1)
    and the line through both points, on seeded ints in [-3p, 3p), so
    negative and unreduced ones too, over F_7, F_10007 and F_(2^61 - 1);
    two abscissas equal mod p, such as x and x + p, raise SingularMatrix."""
    rng = seeded("two-point")
    for field in (F7, P, make_field("fp", 2**61 - 1)):
        p = field.modulus
        for _ in range(40):
            x0, x1, y0, y1 = (rng.randrange(-3 * p, 3 * p) for _ in range(4))
            if (x1 - x0) % p:
                u, v = _interpolate(field, [x0, x1], [y0, y1])
                assert _read(field, u, 3) == from_roots(field, [x0 % p, x1 % p]).coeffs
                assert _read(field, v, 2) == vandermonde_solve(field, [x0 % p, x1 % p], [y0 % p, y1 % p])
                assert_canonical(field, u, 3)
                assert_canonical(field, v, 2)
            for x in (x0 + p, x0 - 2 * p, x0):
                with pytest.raises(SingularMatrix):
                    _interpolate(field, [x0, x], [y0, y1])


@pytest.mark.parametrize("field", [Q, F7, P], ids=["Q", "F7", "F10007"])
def test_interpolate_returns_canonical_pairs(field):
    """`_interpolate` hands back the kernel pairs a point stores: residues
    over 1 on F_p, also from negative and unreduced ordinates; on Q a
    positive denominator with content 1, also for Fraction abscissas; and
    no trailing zero, also where collinear points make the interpolant's
    top coefficient vanish."""
    p = field.modulus
    cases = [
        ([-1, 0, 2], [-2, 1, 7], 2),  # collinear: v = 3x + 1
        ([3, 5], [4, 4], 1),  # a horizontal line, the two-point branch on F_p
        ([3, 5], [0, 0], 0),
        ([0, 1, 2, 3], [0, 0, 0, 0], 0),
        ([Fraction(1, 3), Fraction(-3, 2), 6], [Fraction(5, 6), 2, Fraction(-7, 4)], None),
        ([1, -4, 6, 9], [-5, 3 * p - 1, -2 * p, 8], None),
    ]
    for xs, ys, v_len in cases:
        n = len(xs)
        xv = [field._value(x) for x in xs]
        u, v = _interpolate(field, xv, [y if p and type(y) is int else field._value(y) for y in ys])
        assert_canonical(field, u, n + 1)
        assert_canonical(field, v, n)
        assert _read(field, u, n + 1) == from_roots(field, xs).coeffs
        assert _read(field, v, n) == vandermonde_solve(field, xs, ys)
        assert len(u[0]) == n + 1
        if v_len is not None:
            assert len(v[0]) == v_len
        if not p and any(type(x) is Fraction for x in xs):
            assert u[1] > 1


def _fit_by_solve(field, g, pairs):
    """The Vandermonde solve that fit_curve_through's interpolation replaces."""
    rhs = [y * y - x ** (2 * g + 1) for x, y in pairs]
    lam = vandermonde_solve(field, [x for x, _ in pairs], rhs)
    return CurveParams(g, lam[:g], lam[g:])


def test_fit_curve_through_matches_vandermonde_solve():
    rng = seeded("fit-oracle")
    for field in (Q, P):
        for g in (1, 2, 3):
            xs = rng.sample(range(-9, 10), 2 * g)
            ys = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in xs]
            pairs = [(field.scalar(x), field.scalar(y)) for x, y in zip(xs, ys)]
            assert fit_curve_through(field, g, pairs) == _fit_by_solve(field, g, pairs)


def test_sample_point_q_on_template_matches_vandermonde_solve():
    for g in (1, 2, 3):
        base, _, _ = sample_pair_q(g, seeded(f"template-base:{g}"))
        fitted, a = sample_point_q_on_template(base, seeded(f"template:{g}"))
        replay = seeded(f"template:{g}")
        xs = [Q.scalar(x) for x in replay.sample(range(-9, 10), g)]
        ys = [Q.scalar(replay.randint(1, 9)) for _ in xs]
        lam2 = base.lambda2
        lower = [sum([lam * x ** (g + i) for i, lam in enumerate(lam2)], Q.zero()) for x in xs]
        rhs = [y * y - x ** (2 * g + 1) - w for x, y, w in zip(xs, ys, lower)]
        assert fitted == CurveParams(g, vandermonde_solve(Q, xs, rhs), base.lambda2)
        assert a.p_even == tuple(-c for c in from_roots(Q, xs).coeffs[:g])
        assert a.p_odd == vandermonde_solve(Q, xs, ys)
        assert a.z == base.lambda2


class _Draws:
    """Stands in for random.Random: a fixed sample and constant randint."""

    def __init__(self, xs):
        self.xs = xs

    def sample(self, population, count):
        return self.xs[:count]

    def randint(self, lo, hi):
        return lo


def test_repeated_abscissas_raise_as_before():
    pairs = [(Q.scalar(1), Q.scalar(2)), (Q.scalar(1), Q.scalar(3))]
    with pytest.raises(RepeatedAbscissa):
        viete_phi(PointListRep(pairs, [Q.zero(), Q.zero()]))
    with pytest.raises(SingularMatrix):
        fit_curve_through(Q, 1, pairs)
    # 1 and 6 are distinct draws but one abscissa over F_5
    base = CurveParams(2, [F5.scalar(1), F5.scalar(2)], [F5.scalar(3), F5.scalar(4)])
    with pytest.raises(SingularMatrix):
        sample_point_q_on_template(base, _Draws([1, 6]))


class _Budget(random.Random):
    """A seeded random.Random that fails the test after 1000 draws, so a
    sampler that never stops fails instead of hanging."""

    def randrange(self, *args):
        self.left = getattr(self, "left", 1000) - 1
        if self.left < 0:
            pytest.fail("sampler drew 1000 abscissas without stopping")
        return super().randrange(*args)


def test_sample_point_fp_raises_too_few_points():
    # f = x^5 + 2x^3 takes a square value on F_5 only at x = 0
    c = CurveParams(2, [F5.zero(), F5.zero()], [F5.zero(), F5.scalar(2)])
    with pytest.raises(TooFewPoints):
        sample_point_fp(c, _Budget("too-few"))
    # one abscissa is enough at genus 1: f = x^3 + 2x has f(0) = 0, a square
    c1 = CurveParams(1, [F5.zero()], [F5.scalar(2)])
    assert u_poly(sample_point_fp(c1, _Budget("too-few"))).degree == 1


# sha256 of _draw_transcript() as computed with the Vandermonde-solve
# sampler; the interpolating one must reproduce every draw and output.
DRAWS_SHA256 = "1cb1ef7779efaf15cf34a05ecf89cc0875f62c7b4d1b6976556b4da830de5641"


def _draw_transcript() -> str:
    out = []
    for p in (101, 10007):
        field = make_field("fp", p)
        for g in (1, 2, 3, 8):
            rng = random.Random(f"draws:{p}:{g}")
            c = random_curve_fp(field, g, rng)
            out.append(repr(c))
            out += [repr(sample_point_fp(c, rng)) for _ in range(3)]
    for g in (1, 2, 3):
        rng = random.Random(f"draws:q:{g}")
        c, a1, a2 = sample_pair_q(g, rng)
        out += [repr(c), repr(a1), repr(a2)]
        out += [repr(x) for x in sample_point_q_on_template(c, rng)]
    for seed in (1, 2, 3):
        argv = ["verify", "--field", "fp:10007", "--genus", "2", "--trials", "2"]
        argv += ["--seed", str(seed)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        out += [str(code), buf.getvalue()]
    return "\n".join(out)


def test_draw_sequence_is_pinned():
    assert hashlib.sha256(_draw_transcript().encode()).hexdigest() == DRAWS_SHA256


def test_random_curve_fp_refuses_genus_zero():
    with pytest.raises(ValueError, match="genus must be at least 1"):
        random_curve_fp(P, 0, seeded("genus-zero"))
