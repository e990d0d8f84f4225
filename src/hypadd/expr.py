"""Tiny expression trees for exact symbolic work.

Just enough calculus to state the genus-2 slope identities: constants,
variables, the four arithmetic operations, formal differentiation, and
evaluation into any FieldSpec.  Constants are kept as exact rationals
so one tree serves both the rationals and every odd prime field.  No
simplification is performed; trees share subterms, and evaluation and
differentiation memoize on node identity, so shared structure is walked
once and shared subterms get one shared derivative.
"""

from fractions import Fraction

from .errors import UnboundVariable, UnknownVariable, ZeroDenominator
from .field import FieldSpec, Scalar


class Expr:
    __slots__ = ()

    def _lift(self, other):
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, Fraction)):
            return Const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Add(self, other)

    def __radd__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Add(other, self)

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Sub(self, other)

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Sub(other, self)

    def __mul__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Mul(self, other)

    def __rmul__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Mul(other, self)

    def __truediv__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Div(self, other)

    def __rtruediv__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Div(other, self)

    def __neg__(self):
        return Mul(Const(-1), self)

    def diff(self, var: str) -> "Expr":
        """The formal derivative d/d(var); no simplification."""
        return self._diff(var, {})

    def _diff(self, var, memo):
        key = id(self)
        got = memo.get(key)
        if got is None:
            got = memo[key] = self._diff_node(var, memo)
        return got

    def eval(self, env: dict, field: FieldSpec | None = None) -> Scalar:
        """Evaluate with Scalar bindings; the field defaults to the env's."""
        if field is None:
            for value in env.values():
                field = value.field
                break
            if field is None:
                raise ValueError("no field given and the environment is empty")
        return self._eval(env, field, {})

    def _eval(self, env, field, memo):
        key = id(self)
        got = memo.get(key)
        if got is None:
            got = memo[key] = self._eval_node(env, field, memo)
        return got

    def free_vars(self) -> frozenset:
        out: set = set()
        self._collect_vars(out, set())
        return frozenset(out)

    def _collect_vars(self, out, seen):
        raise NotImplementedError


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = Fraction(value)

    def _diff_node(self, var, memo):
        return Const(0)

    def _eval_node(self, env, field, memo):
        return field.scalar(self.value)

    def _collect_vars(self, out, seen):
        pass

    def __repr__(self):
        return str(self.value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def _diff_node(self, var, memo):
        return Const(1 if var == self.name else 0)

    def _eval_node(self, env, field, memo):
        try:
            return env[self.name]
        except KeyError:
            raise UnboundVariable(self.name) from None

    def _collect_vars(self, out, seen):
        out.add(self.name)

    def __repr__(self):
        return self.name


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def _collect_vars(self, out, seen):
        if id(self) in seen:
            return
        seen.add(id(self))
        self.left._collect_vars(out, seen)
        self.right._collect_vars(out, seen)


class Add(_Binary):
    __slots__ = ()

    def _diff_node(self, var, memo):
        return Add(self.left._diff(var, memo), self.right._diff(var, memo))

    def _eval_node(self, env, field, memo):
        return self.left._eval(env, field, memo) + self.right._eval(env, field, memo)

    def __repr__(self):
        return f"({self.left!r} + {self.right!r})"


class Sub(_Binary):
    __slots__ = ()

    def _diff_node(self, var, memo):
        return Sub(self.left._diff(var, memo), self.right._diff(var, memo))

    def _eval_node(self, env, field, memo):
        return self.left._eval(env, field, memo) - self.right._eval(env, field, memo)

    def __repr__(self):
        return f"({self.left!r} - {self.right!r})"


class Mul(_Binary):
    __slots__ = ()

    def _diff_node(self, var, memo):
        left, right = self.left, self.right
        return Add(Mul(left._diff(var, memo), right), Mul(left, right._diff(var, memo)))

    def _eval_node(self, env, field, memo):
        return self.left._eval(env, field, memo) * self.right._eval(env, field, memo)

    def __repr__(self):
        return f"({self.left!r} * {self.right!r})"


class Div(_Binary):
    __slots__ = ()

    def _diff_node(self, var, memo):
        left, right = self.left, self.right
        num = Sub(Mul(left._diff(var, memo), right), Mul(left, right._diff(var, memo)))
        return Div(num, Mul(right, right))

    def _eval_node(self, env, field, memo):
        den = self.right._eval(env, field, memo)
        if den.is_zero():
            raise ZeroDenominator("division by zero during evaluation")
        return self.left._eval(env, field, memo) / den

    def __repr__(self):
        return f"({self.left!r} / {self.right!r})"


APPLY_L_VARS = ("u2", "u3", "u4", "u5", "v2", "v3", "v4", "v5")


def apply_L(e: Expr) -> Expr:
    """The genus-2 shift operator

        L = 1/2 [ (u3 - v3)(d/du2 - d/dv2) + (u5 - v5)(d/du4 - d/dv4) ].

    Raises weight by one; only the eight variables u2..u5, v2..v5 are
    allowed in e.
    """
    extra = e.free_vars() - set(APPLY_L_VARS)
    if extra:
        raise UnknownVariable(", ".join(sorted(extra)))
    part1 = Mul(Sub(Var("u3"), Var("v3")), Sub(e.diff("u2"), e.diff("v2")))
    part2 = Mul(Sub(Var("u5"), Var("v5")), Sub(e.diff("u4"), e.diff("v4")))
    return Mul(Const(Fraction(1, 2)), Add(part1, part2))
