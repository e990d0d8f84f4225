import contextlib
import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from hypadd import cantor, cantor_add, from_mumford, groupoid, make_field, poly, star, to_mumford
from hypadd.errors import BothZero, DegenerateConfiguration, DivisionByZeroPoly, FieldMismatch
from hypadd.poly import NEG_INF, Poly, _divmod, _inverse, _mul, _pack, from_roots, x_power, xgcd
from hypadd.sampling import random_curve_fp, sample_point_fp
from tests.conftest import fp_pair, seeded

Q = make_field("q")
F7 = make_field("fp", 7)
F10007 = make_field("fp", 10007)
F31 = make_field("fp", 2**31 - 1)
F61 = make_field("fp", 2**61 - 1)


def qp(*coeffs):
    return Poly(Q, tuple(Q.scalar(c) for c in coeffs))


def qpolys(max_size=6):
    coeffs = st.fractions(min_value=-100, max_value=100, max_denominator=10)
    return st.lists(coeffs, max_size=max_size).map(lambda cs: Poly(Q, tuple(Q.scalar(c) for c in cs)))


def fp_elements(field):
    return st.integers(min_value=0, max_value=field.modulus - 1)


def fppolys(field, max_size=6):
    return st.lists(fp_elements(field), max_size=max_size).map(lambda cs: Poly(field, cs))


def polys_over_one_field(n, primes=(F7, F10007), max_size=6):
    """A field (Q or one of primes), n polynomials over it with at most
    max_size coefficients, and an element of it to evaluate at."""
    at = st.fractions(min_value=-50, max_value=50, max_denominator=10)
    q = st.tuples(st.just(Q), st.tuples(*[qpolys(max_size)] * n), at)
    fp = [
        st.tuples(st.just(f), st.tuples(*[fppolys(f, max_size)] * n), fp_elements(f))
        for f in primes
    ]
    return st.one_of(q, *fp)


def holds_field_scalars(p, field):
    kind = Fraction if field.modulus == 0 else int
    return p.field is field and all(
        c.field == field and type(c.value) is kind for c in p.coeffs
    )


def boxed_xgcd(a, b):
    """The kernel-level `xgcd` on two Polys, boxed, with the second
    cofactor t = (d - s*a) / b recomputed, and 0 when b is 0."""
    d, s = (
        Poly._make(a.field, *r)
        for r in xgcd(a._values, a._den, b._values, b._den, a.field.modulus)
    )
    return d, s, Poly(a.field) if b.is_zero() else (d - s * a) // b


def test_product_hand_value():
    # (x^2 - 2x)(x + 1) = x^3 - x^2 - 2x
    assert qp(0, -2, 1) * qp(1, 1) == qp(0, -2, -1, 1)


def test_divmod_hand_value():
    # (x^3 + 1) / (x - 2) = x^2 + 2x + 4 remainder 9
    q, r = divmod(qp(1, 0, 0, 1), qp(-2, 1))
    assert q == qp(4, 2, 1)
    assert r == qp(9)


def test_xgcd_hand_value():
    d, s, t = boxed_xgcd(qp(2, -3, 1), qp(0, -2, 1))
    assert d == qp(-2, 1)
    assert s * qp(2, -3, 1) + t * qp(0, -2, 1) == d


def test_xgcd_runs_euclid_on_a_then_b():
    """The cofactors are Euclid's on (a, b) in that order: with deg a =
    deg b they differ from the run on (b, a), and a zero operand gets
    the zero cofactor."""
    assert boxed_xgcd(qp(1, 1), qp(2, 2)) == (qp(1, 1), qp(), qp("1/2"))
    assert boxed_xgcd(qp(2, 2), qp(1, 1)) == (qp(1, 1), qp(), qp(1))
    assert boxed_xgcd(qp(1, 0, 1), qp(0, 1, 1)) == (qp(1), qp(1, "1/2"), qp("-1/2", "-1/2"))
    assert boxed_xgcd(qp(2, 4), qp()) == (qp("1/2", 1), qp("1/4"), qp())
    assert boxed_xgcd(qp(), qp(2, 4)) == (qp("1/2", 1), qp(), qp("1/4"))
    assert boxed_xgcd(Poly(F7, [1, 1]), Poly(F7, [3, 3])) == (Poly(F7, [1, 1]), Poly(F7), Poly(F7, [5]))


def test_eval_mod7():
    f = Poly(F7, (F7.scalar(3), F7.scalar(0), F7.scalar(1)))
    assert f(F7.scalar(2)) == F7.scalar(0)
    assert f(F7.scalar(1)) == F7.scalar(4)


def test_degree_and_zero():
    assert qp().degree == NEG_INF
    assert qp(0, 0).degree == NEG_INF
    assert qp(5).degree == 0
    assert qp(0, 1).degree == 1
    assert qp().is_zero()


def test_monic():
    f = qp(2, 4)
    assert f.monic() == qp("1/2", 1)
    assert qp(0, 0, 3).monic().is_monic()


def test_getitem_out_of_range():
    assert qp(1, 2)[5] == Q.zero()


def test_division_by_zero_poly():
    with pytest.raises(DivisionByZeroPoly):
        divmod(qp(1, 1), qp())


def test_xgcd_both_zero():
    with pytest.raises(BothZero):
        boxed_xgcd(qp(), qp())


def test_x_power():
    assert x_power(Q, 3) == qp(0, 0, 0, 1)
    assert x_power(Q, 0) == qp(1)


def test_from_roots():
    f = from_roots(Q, (Q.scalar(1), Q.scalar(2)))
    assert f == qp(2, -3, 1)
    assert f(Q.scalar(1)) == Q.zero()


@given(polys_over_one_field(2))
def test_divmod_invariant(case):
    field, (a, b), _ = case
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree
    assert holds_field_scalars(q, field) and holds_field_scalars(r, field)


@given(polys_over_one_field(2))
def test_xgcd_is_common_divisor(case):
    field, (a, b), _ = case
    if a.is_zero() and b.is_zero():
        return
    d, s, t = boxed_xgcd(a, b)
    assert s * a + t * b == d
    assert d.is_monic()
    if not a.is_zero():
        assert (a % d).is_zero()
    if not b.is_zero():
        assert (b % d).is_zero()
    assert all(holds_field_scalars(x, field) for x in (d, s, t))


@given(polys_over_one_field(3))
def test_ring_axioms(case):
    field, (a, b, c), _ = case
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert (a - a).is_zero()
    assert a - b == a + (-b)
    assert holds_field_scalars(a * b, field)


def horner(f, x):
    """f(x) by Horner's rule on Scalars: a reference for evaluation that
    shares no code with the kernels."""
    acc = f.field.zero()
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


@given(
    polys_over_one_field(2, (F7, F10007, F61)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(lambda x: x.denominator > 1),
)
@example((Q, (qp(1, -2, 3), qp(5)), Fraction(-7, 3)), Fraction(5, 6))
def test_eval_is_ring_hom(case, rational):
    """Evaluation is a ring homomorphism and equals Horner's rule, also
    on the zero and a constant polynomial, and over Q at points whose
    denominator is not 1, of either sign."""
    field, (a, b), x0 = case
    for at in (x0, rational) if field.modulus == 0 else (x0,):
        x = field.scalar(at)
        for f in (a, b, a * b, Poly(field), Poly(field, [b[0] + 1])):
            assert f(x) == horner(f, x) and f(x).field is field
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)
        assert (a - b)(x) == a(x) - b(x)
        assert (a * x)(x) == a(x) * x


def test_monic_and_eval_fp():
    # 3x^2 + 5 over F_7: monic is x^2 + 4, and 3*2^2 + 5 = 17 = 3
    f = Poly(F7, [5, 0, 3])
    assert f.monic() == Poly(F7, [4, 0, 1])
    assert f(F7.scalar(2)) == F7.scalar(3)
    assert Poly(F7)(F7.scalar(2)) == F7.zero()


def test_foreign_field_rejected():
    f7p = Poly(F7, [1, 2])
    with pytest.raises(FieldMismatch):
        Poly(F7, [Q.scalar(1)])
    with pytest.raises(FieldMismatch):
        qp(1, 2) + f7p
    with pytest.raises(FieldMismatch):
        f7p * qp(1)
    with pytest.raises(FieldMismatch):
        divmod(f7p, Poly(F10007, [1, 1]))
    with pytest.raises(FieldMismatch):
        f7p * Q.scalar(3)
    with pytest.raises(FieldMismatch):
        f7p(Q.scalar(3))


def test_equality_needs_the_same_field():
    # Bare values 1 and Fraction(1) compare equal; the polynomials do not.
    assert Poly(F7, [1, 2]) != qp(1, 2)
    assert Poly(F7, [1, 2]) == Poly(make_field("fp", 7), [8, -5])
    assert hash(Poly(F7, [1, 2])) == hash(Poly(F7, [8, 9]))


def canonical_form(p):
    """Over Q: int numerators over a positive denominator, content 1, no
    trailing zero.  Over F_p: residues in [0, p) over 1."""
    vals, den = p._values, p._den
    assert type(den) is int and den >= 1
    assert all(type(v) is int for v in vals)
    assert not vals or vals[-1] != 0
    if p.field.modulus:
        return den == 1 and all(0 <= v < p.field.modulus for v in vals)
    return gcd(den, *vals) == 1


@given(polys_over_one_field(2, (F7, F10007, F31, F61), max_size=12))
def test_results_are_canonical(case):
    """Every kernel result is canonical, on lengths up to 12 and on primes
    up to 2^61 - 1, so that the packed paths of `_mul` and `_divmod` run
    (on F_7 and F_10007, and on F_(2^31 - 1) at their shortest packed
    lengths) and so do their coefficient loops: the sums, products (by
    a scalar too, zero and over Q a Fraction), quotients and remainders,
    the (d, s) pair of `xgcd` and the result of `_inverse`."""
    field, (a, b), x0 = case
    results = [a, b, a + b, a - b, -a, a * b, a * field.scalar(x0), a * field.zero(), a.monic()]
    if not field.modulus:
        results.append(a * field.scalar(Fraction(-6, 35)))
    if not b.is_zero():
        results += divmod(a, b)
    if not (a.is_zero() and b.is_zero()):
        results += boxed_xgcd(a, b)[:2]
    if b.degree >= 1 and (s := boxed_inverse(a, b)) is not None:
        results.append(s)
    assert all(canonical_form(p) for p in results)


@given(polys_over_one_field(2))
def test_equal_q_polys_from_two_routes_hash_alike(case):
    field, (a, b), _ = case
    if b.is_zero():
        return
    back = (a * b) // b
    assert back == a and hash(back) == hash(a)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)


def test_divmod_by_negative_non_unit_lead_with_large_denominators():
    big = 2**40 + 15
    a = qp(Fraction(3, big), Fraction(-7, big + 2), 5, Fraction(11, 2**41 + 1), -1, Fraction(1, 3))
    b = qp(Fraction(-5, 2**43 + 7), Fraction(2, 9), Fraction(-6 * big, 2**45 + 3))
    assert b.lc().value < 0 and b.lc().value.numerator != -1
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree and q.degree == a.degree - b.degree
    assert canonical_form(q) and canonical_form(r)
    assert holds_field_scalars(q, Q) and holds_field_scalars(r, Q)


FRACTION_ARITHMETIC = (
    "__mul__",
    "__rmul__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__truediv__",
    "__rtruediv__",
    "__floordiv__",
    "__mod__",
)


def test_q_kernels_make_no_fraction_arithmetic(monkeypatch):
    fa = [Fraction(3, 4), Fraction(-5, 6), Fraction(0), Fraction(7, 9)]
    fb = [Fraction(-2, 3), Fraction(1, 5), Fraction(-4, 7), Fraction(0)]
    a, b = qp(*fa), qp(*fb)
    want_sum = qp(*[x + y for x, y in zip(fa, fb)])
    want_diff = qp(*[x - y for x, y in zip(fa, fb)])

    def refuse(*_):
        raise AssertionError("Fraction arithmetic in a Poly kernel")

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, refuse)
    total, diff, prod, (q, r) = a + b, a - b, a * b, divmod(a, b)
    monkeypatch.undo()
    assert total == want_sum and diff == want_diff
    assert q * b + r == a and prod // b == a


@pytest.mark.parametrize("field", [Q, F7])
def test_poly_times_int_is_the_field_scalar(field):
    f = Poly(field, [3, -5, 1])
    assert f * 2 == f * field.scalar(2)
    assert f * 7 == f * field.scalar(7)
    assert f * 0 == Poly(field)


@pytest.mark.parametrize("field", [Q, F7])
def test_int_times_poly_is_the_field_scalar(field):
    f = Poly(field, [3, -5, 1])
    assert 2 * f == f * field.scalar(2)
    assert -3 * f == f * field.scalar(-3)


NOT_POLYS = (2, Fraction(1, 2), 1.5, "x", None)


@pytest.mark.parametrize(
    "op",
    [operator.add, operator.sub, lambda f, o: o + f, lambda f, o: o - f],
    ids=["poly+other", "poly-other", "other+poly", "other-poly"],
)
def test_add_and_sub_with_a_non_poly_raise_type_error(op):
    for other in NOT_POLYS:
        with pytest.raises(TypeError):
            op(qp(1, 2), other)


@pytest.mark.parametrize("op", [operator.mul, lambda f, o: o * f], ids=["poly*other", "other*poly"])
def test_mul_by_a_non_scalar_raises_type_error(op):
    for other in NOT_POLYS[1:]:
        with pytest.raises(TypeError):
            op(qp(1, 2), other)


def test_divmod_by_a_non_poly_raises_type_error():
    for other in NOT_POLYS:
        with pytest.raises(TypeError):
            divmod(qp(1, 2), other)


def boxed_inverse(a, m):
    """The kernel `_inverse` on two Polys, boxed."""
    s = _inverse(a._values, a._den, m._values, m._den, a.field.modulus)
    return None if s is None else Poly._make(a.field, *s)


@given(polys_over_one_field(2))
def test_inverse_mod_iff_gcd_is_constant(case):
    """The kernel `_inverse` gives the inverse of a mod m exactly when
    xgcd finds a constant gcd, and None otherwise."""
    field, (a, m), _ = case
    if m.degree < 1:
        return
    s = boxed_inverse(a, m)
    if boxed_xgcd(a, m)[0].degree == 0:
        assert (s * a) % m == Poly(field, [1])
        assert s.degree < m.degree and canonical_form(s)
    else:
        assert s is None


def test_inverse_mod_worked_values():
    # x * (x + 1) = x^2 + x = -1 mod x^2 + x + 1, so x^-1 = -(x + 1)
    assert boxed_inverse(qp(0, 1), qp(1, 1, 1)) == qp(-1, -1)
    # a of higher degree than m: x^3 = 1 mod x^2 + x + 1
    assert boxed_inverse(qp(0, 0, 0, 1), qp(1, 1, 1)) == qp(1)
    assert boxed_inverse(qp(-1, 1), qp(-1, 0, 1)) is None
    assert boxed_inverse(Poly(F7), Poly(F7, [1, 0, 1])) is None


# Kernels over F_p against textbook routines on ascending residue lists.
PACKED_PRIMES = (7, 10007, 2**31 - 1, 2**61 - 1)


def stripped(values):
    while values and not values[-1]:
        values = values[:-1]
    return tuple(values)


def textbook_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return stripped(out)


def textbook_divmod(a, b, p):
    m, inv = len(b) - 1, pow(b[-1], -1, p)
    rem, quo = list(a), [0] * max(len(a) - m, 0)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = c = rem[k + m] * inv % p
        for i, y in enumerate(b):
            rem[k + i] = (rem[k + i] - c * y) % p
    return stripped(quo), stripped(rem[:m])


def residues(n, p, rng, monic=False):
    """n canonical residues with a nonzero top one, 1 when monic."""
    return tuple(rng.randrange(p) for _ in range(n - 1)) + (1 if monic else rng.randrange(1, p),)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_fp_mul_matches_the_textbook_convolution(p):
    """Lengths 1-20 on both sides, random and all-(p - 1) operands, the
    worst case of the packed product's word bound."""
    rng = seeded(f"packed-mul-{p}")
    for la in range(1, 21):
        for lb in range(1, 21):
            for a, b in ((residues(la, p, rng), residues(lb, p, rng)), ((p - 1,) * la, (p - 1,) * lb)):
                assert _mul(a, 1, b, 1, p) == (textbook_mul(a, b, p), 1)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_fp_divmod_matches_textbook_long_division(p):
    """Dividends of length 1-20 by monic and non-monic divisors of length
    1-20 (`_euclid` divides by non-monic remainders), random and
    all-(p - 1); and multiples of (p - 1, ..., p - 1, 1) by 1 + x + ...,
    whose every step adds (p - 1)^2 to the words below the top one, the
    worst case of the packed remainder's word bound."""
    rng = seeded(f"packed-divmod-{p}")
    for la in range(1, 21):
        for lb in range(1, 21):
            cases = [(residues(la, p, rng), residues(lb, p, rng, monic)) for monic in (True, False)]
            worst = (p - 1,) * (lb - 1) + (1,)
            cases += [((p - 1,) * la, (p - 1,) * lb), ((p - 1,) * la, worst)]
            if la >= lb:
                cases.append((textbook_mul(worst, (1,) * (la - lb + 1), p), worst))
            for a, b in cases:
                q, r = textbook_divmod(a, b, p)
                assert _divmod(a, 1, b, 1, p) == ((q, 1), (r, 1))


def packs(monkeypatch):
    """The list of operands that `poly._pack` receives from here on."""
    packed, real = [], poly._pack

    def counted(a):
        packed.append(a)
        return real(a)

    monkeypatch.setattr(poly, "_pack", counted)
    return packed


def test_pack_puts_coefficient_i_in_word_i():
    assert _pack([1, 2, 3]) == 1 + (2 << 64) + (3 << 128)
    assert _pack([2**64 - 1]) == 2**64 - 1
    with pytest.raises(OverflowError):
        _pack([5, -1])
    with pytest.raises(OverflowError):
        _pack([2**64])


@pytest.mark.parametrize(
    "p, mul_lengths, divmod_quotients",
    [
        (7, range(3, 21), range(1, 18)),
        (10007, range(3, 21), range(1, 18)),
        (2**31 - 1, [3], [1]),
        (2**61 - 1, [], []),
    ],
)
def test_packed_paths_take_exactly_the_bounded_operands(monkeypatch, p, mul_lengths, divmod_quotients):
    """On all-(p - 1) operands the product packs for n > 2 only where
    A + B + n.bit_length() <= 64, and the division by a degree-3 divisor
    packs only where 2 P + k.bit_length() < 64: F_(2^31 - 1) sits on both
    sides of both bounds, F_(2^61 - 1) always falls through.  A divisor
    of degree 2 or less never packs."""
    packed = packs(monkeypatch)

    def packed_by(kernel, *args):
        packed.clear()
        kernel(*args)
        return bool(packed)

    top, divisor = (p - 1,) * 20, (p - 1,) * 3 + (1,)
    assert [n for n in range(1, 21) if packed_by(_mul, top[:n], 1, top[:n], 1, p)] == list(mul_lengths)
    quotients = [k for k in range(1, 18) if packed_by(_divmod, top[: k + 3], 1, divisor, 1, p)]
    assert quotients == list(divmod_quotients)
    assert not any(packed_by(_divmod, top, 1, top[:n], 1, p) for n in (1, 2, 3))


def answered_fp_pairs(field, genus, count, tag):
    """count (curve, a1, a2) over field on which star answers."""
    rng, found = seeded(tag), []
    while len(found) < count:
        c, a1, a2 = fp_pair(field, genus, rng)
        try:
            star(a1, a2)
        except DegenerateConfiguration:
            continue
        found.append((c, a1, a2))
    return found


def test_genus_8_star_matches_cantor_over_a_31_bit_prime():
    """Over F_(2^31 - 1) the products in star and Cantor fall on both
    sides of the packed product's bound."""
    for c, a1, a2 in answered_fp_pairs(make_field("fp", 2**31 - 1), 8, 3, "packed-star-g8"):
        want = from_mumford(cantor_add(to_mumford(a1, c), to_mumford(a2, c), c), c)
        assert star(a1, a2) == want


@pytest.mark.parametrize("genus, packed_path", [(8, True), (2, False)])
def test_fp_star_takes_the_packed_path_above_genus_2(monkeypatch, genus, packed_path):
    """A genus-8 star over F_10007 packs its operands; a genus-2 one, whose
    u has degree 2, stays on the coefficient loops."""
    pairs = answered_fp_pairs(F10007, genus, 3, f"packed-guard-{genus}")
    packed = packs(monkeypatch)
    for _, a1, a2 in pairs:
        star(a1, a2)
    assert bool(packed) is packed_path


def two_pairs(a, da, b, db, p, sign=1):
    return p, [(a, da), (b, db)]


# Each F_p kernel and (p, its operand pairs) from its arguments: two
# pairs and p (and `_add`'s sign), a pair and p for `_neg`, or bare
# numerators and p for `_monic`.
KERNEL_OPERANDS = dict.fromkeys(("_add", "_mul", "_divmod", "_euclid", "_inverse", "xgcd"), two_pairs)
KERNEL_OPERANDS.update(_neg=lambda a, p: (p, [a]), _monic=lambda a, p: (p, [(a, 1)]))


def kernel_pairs(result):
    """The kernel pairs in a kernel's result: one pair, a pair of pairs,
    or none for `_inverse`'s None."""
    if result is None:
        return []
    if type(result[1]) is int:
        return [result]
    return [pair for part in result for pair in kernel_pairs(part)]


def is_residue_tuple(pair, p):
    nums, den = pair
    return (
        type(nums) is tuple
        and den == 1
        and all(type(v) is int and 0 <= v < p for v in nums)
        and (not nums or nums[-1] != 0)
    )


def watch_kernels(monkeypatch):
    """Wrap every F_p kernel under each name `poly`, `groupoid` and
    `cantor` call it by.  Returns the names of the kernels called, and
    the list of (kernel, "operand" or "result", pair) for each pair that
    was not a tuple of residues in [0, p) over 1 without a trailing zero."""
    called, bad = set(), []

    def wrap(name, kernel):
        def watched(*args):
            p, operands = KERNEL_OPERANDS[name](*args)
            result = kernel(*args)
            if p:
                called.add(name)
                for role, pairs in (("operand", operands), ("result", kernel_pairs(result))):
                    bad.extend((name, role, x) for x in pairs if not is_residue_tuple(x, p))
            return result

        return watched

    for module in (poly, groupoid, cantor):
        for name in KERNEL_OPERANDS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrap(name, getattr(poly, name)))
    return called, bad


@pytest.mark.parametrize("field", [F10007, F31], ids=["F_10007", "F_2^31-1"])
def test_fp_kernels_take_and_give_canonical_residue_tuples(monkeypatch, field):
    """The F_p kernel contract: canonical residue tuples in and out, with
    no second pass.  Checked on every kernel call of star on one
    answered pair at genus 3, 4 and 8, of the Cantor round trip on that
    pair and of a difference whose top terms cancel; the points that
    sample_point_fp builds hold canonical pairs too."""
    p, rng = field.modulus, seeded(f"kernel-contract-{field.modulus}")
    called, bad = watch_kernels(monkeypatch)
    for genus in (3, 4, 8):
        c, want = random_curve_fp(field, genus, rng), None
        while want is None:
            a1, a2 = sample_point_fp(c, rng), sample_point_fp(c, rng)
            points = [x for a in (a1, a2) for x in (a._u, a._v)]
            bad.extend(("sample_point_fp", "point", x) for x in points if not is_residue_tuple(x, p))
            with contextlib.suppress(DegenerateConfiguration):
                want = star(a1, a2)
        assert from_mumford(cantor_add(to_mumford(a1, c), to_mumford(a2, c), c), c) == want
    assert Poly(field, [1, 2, 3]) - Poly(field, [4, 5, 3]) == Poly(field, [-3, -3])
    assert bad == []
    assert called == set(KERNEL_OPERANDS)
