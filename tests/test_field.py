import operator
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hypadd import FieldSpec, Scalar, make_field, field_from_string
from hypadd.errors import EvenCharacteristic, FieldMismatch, NonPrimeModulus, UncertifiedModulus
from hypadd.field import _inverse_value, _is_prime

Q = make_field("q")
P = make_field("fp", 10007)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
fp_ints = st.integers(min_value=0, max_value=10006)


def q_scalars():
    return rationals.map(Q.scalar)


def p_scalars():
    return fp_ints.map(P.scalar)


@given(q_scalars(), q_scalars(), q_scalars())
def test_q_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + Q.zero() == a
    assert a * Q.one() == a
    assert a - a == Q.zero()


@given(p_scalars(), p_scalars(), p_scalars())
def test_fp_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == P.zero()
    assert a * P.one() == a


@given(q_scalars())
def test_q_inverse(a):
    if a == Q.zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == Q.one()


@given(p_scalars())
def test_fp_inverse(a):
    if a == P.zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == P.one()


@given(q_scalars(), st.integers(min_value=0, max_value=12))
def test_q_pow(a, n):
    acc = Q.one()
    for _ in range(n):
        acc = acc * a
    assert a**n == acc


def test_int_lifting():
    a = Q.scalar(Fraction(1, 2))
    assert a + 1 == Q.scalar(Fraction(3, 2))
    assert 2 * a == Q.one()
    assert 1 - a == a
    b = P.scalar(3)
    assert b + 10007 == b
    assert 2 * b == P.scalar(6)


def test_cross_field_rejected():
    with pytest.raises(FieldMismatch):
        Q.scalar(1) + P.scalar(1)
    with pytest.raises(FieldMismatch):
        P.scalar(Q.scalar(1))
    # An equal but distinct FieldSpec is the same field.
    other_p = make_field("fp", 10007)
    assert other_p is not P
    assert P.scalar(3) + other_p.scalar(4) == other_p.scalar(7)
    assert Q.scalar(3) != P.scalar(3)


BINARY_DUNDERS = [
    ("__add__", operator.add, False),
    ("__radd__", operator.add, True),
    ("__sub__", operator.sub, False),
    ("__rsub__", operator.sub, True),
    ("__mul__", operator.mul, False),
    ("__rmul__", operator.mul, True),
    ("__truediv__", operator.truediv, False),
    ("__rtruediv__", operator.truediv, True),
]


@pytest.mark.parametrize("field", [Q, P], ids=["Q", "F10007"])
@pytest.mark.parametrize("name, op, reflected", BINARY_DUNDERS, ids=[d[0] for d in BINARY_DUNDERS])
def test_every_binary_operator_lifts_its_operand(field, name, op, reflected):
    """Each of Scalar's eight binary dunders lifts an int on either side
    (so 3 - a and 3 / a keep their order), raises FieldMismatch for a
    Scalar of another field, and returns NotImplemented for any other
    operand, so the operator raises TypeError."""
    a, method = field.scalar(5), getattr(Scalar, name)
    want = field.scalar(op(Fraction(3), Fraction(5)) if reflected else op(Fraction(5), Fraction(3)))
    assert method(a, 3) == want
    assert (op(3, a) if reflected else op(a, 3)) == want
    assert (op(field.scalar(3), a) if reflected else op(a, field.scalar(3))) == want
    with pytest.raises(FieldMismatch):
        method(a, (P if field is Q else Q).scalar(3))
    for other in (2.5, "3", None):
        assert method(a, other) is NotImplemented
        with pytest.raises(TypeError):
            op(other, a) if reflected else op(a, other)


def test_field_construction_errors():
    """make_field and the FieldSpec constructor refuse the same moduli, so
    no Z/n is built whose inverses fail outside HypaddError; modulus 0
    is Q only through FieldSpec."""
    with pytest.raises(EvenCharacteristic):
        make_field("fp", 2)
    with pytest.raises(NonPrimeModulus):
        make_field("fp", 10006)
    with pytest.raises(NonPrimeModulus):
        make_field("fp", 1)
    with pytest.raises(NonPrimeModulus):
        make_field("fp", 0)
    with pytest.raises(EvenCharacteristic):
        FieldSpec(2)
    for modulus in (15, -7, 1):
        with pytest.raises(NonPrimeModulus):
            FieldSpec(modulus)
    with pytest.raises(UncertifiedModulus):
        FieldSpec(2**89 - 1)
    assert FieldSpec(0) == Q and FieldSpec(10007) == P


def test_field_spec_refuses_a_modulus_that_is_not_an_int():
    """A float, string, bool or None modulus raises ValueError, not a
    bare TypeError from the primality test, "True is not prime", or Q,
    from FieldSpec and from make_field("fp", ...) alike."""
    for modulus in (10007.0, "10007", True, False, 0.0, None):
        with pytest.raises(ValueError):
            FieldSpec(modulus)
        with pytest.raises(ValueError):
            make_field("fp", modulus)


def test_make_field_q_refuses_a_modulus():
    """The rationals take no modulus: make_field("q", m) raises ValueError
    for every m other than None, rather than returning Q and dropping m."""
    assert make_field("q", None) == Q
    for modulus in (7, 10007, 0, 1, -3, 7.0, "7", False):
        with pytest.raises(ValueError):
            make_field("q", modulus)


def test_scalar_constructor_is_canonical():
    """Scalar(field, v) reduces an int into [0, p), so equal residues
    compare and hash equal however they were built; a Q value is kept."""
    f7 = make_field("fp", 7)
    assert Scalar(f7, -1) == f7.scalar(6)
    assert hash(Scalar(f7, -1)) == hash(f7.scalar(6))
    assert Scalar(f7, 13).value == 6
    assert {Scalar(f7, v) for v in (-8, -1, 6, 13)} == {f7.scalar(6)}
    half = Fraction(-1, 2)
    assert Scalar(Q, half).value is half


def test_is_prime_matches_trial_division():
    def by_trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if by_trial(n)]


def test_large_prime_modulus_is_fast():
    start = time.perf_counter()
    assert make_field("fp", 2**61 - 1).modulus == 2**61 - 1
    assert time.perf_counter() - start < 0.1


def test_pseudoprimes_rejected():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7.
    for n in (561, 3215031751, (2**61 - 1) * (2**31 - 1)):
        with pytest.raises(NonPrimeModulus):
            make_field("fp", n)


def test_modulus_above_certified_bound_refused():
    # 2^89 - 1 is prime but above 3.3e24, where 13 Miller-Rabin bases
    # stop being a proof; a composite there is still found.
    with pytest.raises(UncertifiedModulus):
        make_field("fp", 2**89 - 1)
    with pytest.raises(NonPrimeModulus):
        make_field("fp", (2**89 - 1) * 3)


def test_field_string_round_trip():
    assert field_from_string("q") == Q
    assert field_from_string("fp:10007") == P
    assert Q.to_string() == "q"
    assert P.to_string() == "fp:10007"


def test_scalar_parsing():
    assert Q.scalar("3/4") == Q.scalar(Fraction(3, 4))
    assert Q.scalar("-7") == Q.scalar(-7)
    assert P.scalar("1/2") == P.scalar(pow(2, -1, 10007))
    assert P.scalar(-1) == P.scalar(10006)


def test_inexact_values_are_a_value_error():
    """Only an int, a Fraction, a string or a Scalar of the field is a
    value: a float would be read as its binary expansion over Q, and over
    F_p neither a float nor None has a numerator."""
    for field in (Q, P):
        for value in (0.1, 1.0, None, [1], complex(1, 0)):
            with pytest.raises(ValueError, match="not an int, a Fraction"):
                field.scalar(value)
        assert field.scalar(Fraction(6, 4)) == field.scalar("3/2")


def test_scalar_to_string():
    assert Q.scalar(Fraction(-3, 4)).to_string() == "-3/4"
    assert Q.scalar(5).to_string() == "5"
    assert P.scalar(12).to_string() == "12"


@given(st.one_of(st.integers(min_value=-(10**30), max_value=10**30), rationals))
def test_inverse_value_over_q_is_an_exact_fraction(v):
    if v == 0:
        return
    inv = _inverse_value(v, 0)
    assert type(inv) is Fraction
    assert inv * v == 1


def test_inverse_value_of_an_int():
    assert _inverse_value(3, 0) == Fraction(1, 3) and type(_inverse_value(3, 0)) is Fraction
    assert _inverse_value(-4, 0) == Fraction(-1, 4)
    assert _inverse_value(3, 7) == 5


def test_zero_denominator_is_a_value_error():
    f7 = make_field("fp", 7)
    cases = ((Q, "1/0"), (f7, "1/0"), (f7, "1/7"), (f7, " 3/14 "), (f7, Fraction(2, 21)))
    for field, value in cases:
        with pytest.raises(ValueError, match=str(value).strip()):
            field.scalar(value)
    assert f7.scalar("7/7") == f7.one()
    assert make_field("fp", 11).scalar("1/7") == make_field("fp", 11).scalar(8)


def test_make_field_refuses_an_unknown_kind():
    """Only "q" and "fp" name a field; "fq" with a prime is not F_7."""
    for kind in ("fq", "Q", ""):
        with pytest.raises(ValueError, match="unknown field kind"):
            make_field(kind, 7)


def test_int_over_a_scalar_is_its_inverse_times_the_int():
    assert 1 / P.scalar(3) == P.scalar(3).inverse()
    assert 2 / Q.scalar(4) == Q.scalar(Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        1 / P.zero()


def test_negative_power_is_a_power_of_the_inverse():
    """s ** -k is (1/s) ** k, and 0 ** -1 raises ZeroDivisionError over
    both fields, as the inverse of zero does."""
    assert P.scalar(3) ** -2 == P.scalar(3).inverse() ** 2
    assert Q.scalar(Fraction(2, 3)) ** -3 == Q.scalar(Fraction(27, 8))
    for field in (P, Q):
        with pytest.raises(ZeroDivisionError):
            field.zero() ** -1


def test_a_scalar_is_true_unless_zero():
    for field in (P, Q):
        assert not field.zero() and not bool(field.scalar(0))
        assert field.one() and bool(field.scalar(-1))
    assert not P.scalar(10007)


def test_a_scalar_equals_the_int_it_lifts_to():
    """An int compares through its image in the field: 10010 is 3 in F_10007."""
    assert P.scalar(3) == 3 and P.scalar(3) == 10010 and 10010 == P.scalar(3)
    assert P.scalar(3) != 4 and Q.scalar(3) != 10010
    assert Q.scalar(Fraction(6, 2)) == 3 and Q.scalar(Fraction(1, 2)) != 0
