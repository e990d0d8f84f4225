"""The diff oracle here is forward-mode dual-number evaluation, which
shares no code with the symbolic differentiator."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hypadd import make_field
from hypadd.errors import UnboundVariable, UnknownVariable, ZeroDenominator
from hypadd.expr import Add, Const, Div, Mul, Sub, Var, apply_L

Q = make_field("q")


class Dual:
    """a + b*eps with eps^2 = 0, over Fraction."""

    def __init__(self, a, b=Fraction(0)):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o):
        return Dual(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Dual(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return Dual(self.a * o.a, self.a * o.b + self.b * o.a)

    def __truediv__(self, o):
        return Dual(self.a / o.a, (self.b * o.a - self.a * o.b) / (o.a * o.a))


def dual_eval(e, env, wrt):
    if isinstance(e, Const):
        return Dual(e.value)
    if isinstance(e, Var):
        return Dual(env[e.name], Fraction(1) if e.name == wrt else Fraction(0))
    ops = {Add: Dual.__add__, Sub: Dual.__sub__, Mul: Dual.__mul__, Div: Dual.__truediv__}
    return ops[type(e)](dual_eval(e.left, env, wrt), dual_eval(e.right, env, wrt))


@st.composite
def exprs(draw, depth=0):
    if depth >= 4 or draw(st.booleans()):
        if draw(st.booleans()):
            return Var(draw(st.sampled_from(["x", "y"])))
        return Const(draw(st.fractions(min_value=-9, max_value=9, max_denominator=4)))
    op = draw(st.sampled_from([Add, Sub, Mul, Div]))
    return op(draw(exprs(depth=depth + 1)), draw(exprs(depth=depth + 1)))


@given(
    exprs(),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    st.sampled_from(["x", "y"]),
)
def test_diff_matches_dual_numbers(e, x0, y0, wrt):
    env = {"x": x0, "y": y0}
    try:
        want = dual_eval(e, env, wrt)
    except ZeroDivisionError:
        return
    scalar_env = {k: Q.scalar(v) for k, v in env.items()}
    assert e.eval(scalar_env, Q).value == want.a
    assert e.diff(wrt).eval(scalar_env, Q).value == want.b


def test_diff_hand_values():
    x = Var("x")
    env = {"x": Q.scalar(3)}
    assert (x * x).diff("x").eval(env, Q) == Q.scalar(6)
    one_over_x = Const(Fraction(1)) / x
    assert one_over_x.diff("x").eval(env, Q) == Q.scalar(Fraction(-1, 9))
    assert Const(Fraction(7)).diff("x").eval(env, Q) == Q.zero()
    assert x.diff("y").eval(env, Q) == Q.zero()


def test_eval_infers_field_from_env():
    x = Var("x")
    assert (x + 1).eval({"x": Q.scalar(2)}) == Q.scalar(3)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariable):
        Var("x").eval({}, Q)


def test_eval_zero_denominator():
    x = Var("x")
    with pytest.raises(ZeroDenominator):
        (Const(Fraction(1)) / x).eval({"x": Q.zero()}, Q)


def test_free_vars():
    x, y = Var("x"), Var("y")
    e = (x + y) * x - Const(Fraction(2))
    assert e.free_vars() == {"x", "y"}


def test_shared_subtree_evaluates_once():
    x = Var("x")
    shared = x * x
    e = shared + shared
    assert e.eval({"x": Q.scalar(5)}, Q) == Q.scalar(50)


def test_shared_subtree_gets_one_derivative():
    x = Var("x")
    e = x * x
    d = (e * e).diff("x")  # Add(Mul(e', e), Mul(e, e'))
    assert d.left.left is d.right.right
    assert d.eval({"x": Q.scalar(2)}, Q) == Q.scalar(32)


def test_apply_l_hand_values():
    u2, u3, u4, u5 = Var("u2"), Var("u3"), Var("u4"), Var("u5")
    v2, v3, v4, v5 = Var("v2"), Var("v3"), Var("v4"), Var("v5")
    half = Q.scalar(Fraction(1, 2))
    env = {
        "u2": Q.scalar(1), "u3": Q.scalar(2), "u4": Q.scalar(3), "u5": Q.scalar(4),
        "v2": Q.scalar(5), "v3": Q.scalar(7), "v4": Q.scalar(11), "v5": Q.scalar(13),
    }
    # L(u2) = (u3 - v3)/2, L(v2) = -(u3 - v3)/2, L(u4) = (u5 - v5)/2
    assert apply_L(u2).eval(env, Q) == half * (env["u3"] - env["v3"])
    assert apply_L(v2).eval(env, Q) == -half * (env["u3"] - env["v3"])
    assert apply_L(u4).eval(env, Q) == half * (env["u5"] - env["v5"])
    assert apply_L(v4).eval(env, Q) == -half * (env["u5"] - env["v5"])
    # odd coordinates are constants for L
    assert apply_L(u3 + v5).eval(env, Q) == Q.zero()
    assert apply_L(Const(Fraction(3))).eval(env, Q) == Q.zero()


def test_apply_l_is_leibniz():
    u2, v4 = Var("u2"), Var("v4")
    env = {
        "u2": Q.scalar(2), "u3": Q.scalar(3), "u4": Q.scalar(5), "u5": Q.scalar(7),
        "v2": Q.scalar(-1), "v3": Q.scalar(4), "v4": Q.scalar(6), "v5": Q.scalar(-2),
    }
    prod = u2 * v4
    lhs = apply_L(prod).eval(env, Q)
    rhs = (
        apply_L(u2).eval(env, Q) * env["v4"]
        + env["u2"] * apply_L(v4).eval(env, Q)
    )
    assert lhs == rhs


def test_apply_l_rejects_foreign_variables():
    with pytest.raises(UnknownVariable):
        apply_L(Var("x"))
