import pytest

from hypadd import anchor, divisor_valid, make_field, to_mumford
from hypadd.errors import SqrtOverRationals
from hypadd.groupoid import u_poly, v_poly
from hypadd.sampling import (
    fit_curve_through,
    random_curve_fp,
    sample_pair_q,
    sample_point_fp,
    sample_point_q_on_template,
    scalar_sqrt,
    sqrt_mod,
)
from tests.conftest import TEST_PRIME, seeded

Q = make_field("q")
P = make_field("fp", TEST_PRIME)


def test_sqrt_mod():
    for p in (10007, 7, 2**31 - 1):
        found = 0
        for a in range(1, 40):
            r = sqrt_mod(a % p, p)
            if r is not None:
                assert r * r % p == a % p
                found += 1
        assert found > 0


def test_scalar_sqrt_fp():
    nine = P.scalar(9)
    r = scalar_sqrt(nine)
    assert r is not None and r * r == nine


def test_scalar_sqrt_q_raises():
    with pytest.raises(SqrtOverRationals):
        scalar_sqrt(Q.scalar(9))


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
