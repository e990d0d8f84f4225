"""Dense univariate polynomials over an exact field.

A Poly holds its field and its bare coefficients (ints in [0, p) over
F_p, Fractions over Q) ascending, with trailing zeros stripped, so the
zero polynomial is the empty tuple and reports degree -inf.

The exact arithmetic computes on bare values (left unreduced mod p
until `_from_raw` builds the result), and Scalars are built only where
a caller reads one: `coeffs`, `p[i]`, `lc()` and evaluation results.
"""

from .errors import BothZero, DivisionByZeroPoly, FieldMismatch
from .field import FieldSpec, Scalar, _inverse_value

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "_values")

    def __init__(self, field: FieldSpec, coeffs=()):
        vs = [field._value(c) for c in coeffs]
        while vs and not vs[-1]:
            vs.pop()
        self.field = field
        self._values = tuple(vs)

    @classmethod
    def _from_raw(cls, field: FieldSpec, values) -> "Poly":
        """The polynomial with these ascending bare coefficients (reduced
        mod p here; Fractions only over Q), trailing zeros stripped."""
        values = field._canonical(values)
        n = len(values)
        while n and not values[n - 1]:
            n -= 1
        out = cls.__new__(cls)
        out.field = field
        out._values = tuple(values[:n])
        return out

    @property
    def coeffs(self) -> tuple:
        return self.field._box(self._values)

    @property
    def degree(self):
        return len(self._values) - 1 if self._values else NEG_INF

    def is_zero(self) -> bool:
        return not self._values

    def is_monic(self) -> bool:
        return bool(self._values) and self._values[-1] == 1

    def lc(self) -> Scalar:
        """Leading coefficient; zero for the zero polynomial."""
        return self[len(self._values) - 1]

    def __getitem__(self, i: int) -> Scalar:
        if 0 <= i < len(self._values):
            return Scalar(self.field, self._values[i])
        return self.field.zero()

    def _check(self, other):
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("polynomials over different fields")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self._values == other._values

    def __hash__(self):
        return hash((self.field, self._values))

    def __add__(self, other):
        self._check(other)
        a, b = self._values, other._values
        if len(a) < len(b):
            a, b = b, a
        return Poly._from_raw(self.field, [x + y for x, y in zip(a, b)] + list(a[len(b) :]))

    def __sub__(self, other):
        self._check(other)
        a, b = self._values, other._values
        n = min(len(a), len(b))
        out = [x - y for x, y in zip(a, b)] + list(a[n:]) + [-y for y in b[n:]]
        return Poly._from_raw(self.field, out)

    def __neg__(self):
        return Poly._from_raw(self.field, [-c for c in self._values])

    def __mul__(self, other):
        if isinstance(other, Scalar):
            s = self.field._value(other)
            return Poly._from_raw(self.field, [c * s for c in self._values])
        self._check(other)
        a, b = self._values, other._values
        if not a or not b:
            return Poly(self.field)
        m = len(b)
        out = [0] * (len(a) + m - 1)
        for i, x in enumerate(a):
            out[i : i + m] = [o + x * y for o, y in zip(out[i : i + m], b)]
        return Poly._from_raw(self.field, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Exact long division: self = q*other + r with deg r < deg other.

        Remainder entries stay unreduced mod p; each quotient
        coefficient is reduced as it is taken.
        """
        self._check(other)
        if other.is_zero():
            raise DivisionByZeroPoly("division by the zero polynomial")
        if self.degree < other.degree:
            return Poly(self.field), self
        p = self.field.modulus
        rem, b = list(self._values), other._values
        m = len(b) - 1
        inv_lc = _inverse_value(b[m], p)
        b = b[:m]
        quo = [0] * (len(rem) - m)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + m] * inv_lc
            if p:
                c %= p
            quo[k] = c
            if c:
                rem[k : k + m] = [r - c * y for r, y in zip(rem[k : k + m], b)]
        return Poly._from_raw(self.field, quo), Poly._from_raw(self.field, rem[:m])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, at: Scalar) -> Scalar:
        """Horner evaluation."""
        x = self.field._value(at)
        p = self.field.modulus
        acc = self.field._value(0)
        for c in reversed(self._values):
            acc = acc * x + c
            if p:
                acc %= p
        return Scalar(self.field, acc)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * self.lc().inverse()

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                terms.append(c.to_string())
            elif i == 1:
                terms.append(f"{c.to_string()}*x")
            else:
                terms.append(f"{c.to_string()}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def x_power(field: FieldSpec, k: int) -> Poly:
    """The monomial x^k."""
    return Poly._from_raw(field, [field._value(0)] * k + [field._value(1)])


def from_roots(field: FieldSpec, roots) -> Poly:
    """Monic polynomial with the given roots (with multiplicity)."""
    acc = Poly(field, [1])
    for r in roots:
        acc = acc * Poly(field, [-field.scalar(r), field.one()])
    return acc


def xgcd(a: Poly, b: Poly):
    """Extended gcd: returns (d, s, t) with s*a + t*b = d and d monic."""
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly(field, [1]), Poly(field)
    t0, t1 = Poly(field), Poly(field, [1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    scale = r0.lc().inverse()
    return r0 * scale, s0 * scale, t0 * scale
