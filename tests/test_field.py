from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hypadd import make_field, field_from_string
from hypadd.errors import EvenCharacteristic, FieldMismatch, NonPrimeModulus

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


def test_field_construction_errors():
    with pytest.raises(EvenCharacteristic):
        make_field("fp", 2)
    with pytest.raises(NonPrimeModulus):
        make_field("fp", 10006)
    with pytest.raises(NonPrimeModulus):
        make_field("fp", 1)


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


def test_scalar_to_string():
    assert Q.scalar(Fraction(-3, 4)).to_string() == "-3/4"
    assert Q.scalar(5).to_string() == "5"
    assert P.scalar(12).to_string() == "12"
