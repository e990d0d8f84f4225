"""Dense univariate polynomials over an exact field.

A Poly holds ascending int coefficients `_values`, trailing zeros
stripped (zero is the empty tuple, of degree -inf), over one `_den`:
residues in [0, p) over 1 on F_p; over Q numerators with `_den` > 0 and
gcd(`_den`, *`_values`) = 1, as FLINT's fmpq_poly (von zur Gathen &
Gerhard, Modern Computer Algebra, ch. 6).  Arithmetic runs on ints, and
`_from_ints` reduces each result mod p or divides out its content; the
Scalars a caller reads (`coeffs`, `p[i]`, `lc()`, evaluation) hold
Fractions over Q.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import BothZero, DivisionByZeroPoly, FieldMismatch
from .field import FieldSpec, Scalar

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "_values", "_den")

    def __init__(self, field: FieldSpec, coeffs=()):
        vs, den = [field._value(c) for c in coeffs], 1
        if not field.modulus:
            # Over the lcm of reduced denominators the content is already 1.
            den = lcm(*[v.denominator for v in vs])
            vs = [v.numerator * (den // v.denominator) for v in vs]
        while vs and not vs[-1]:
            vs.pop()
        self.field, self._values, self._den = field, tuple(vs), den

    @classmethod
    def _from_raw(cls, field: FieldSpec, values) -> "Poly":
        """Ascending bare coefficients: ints (reduced here) over F_p, Fractions over Q."""
        return cls._from_ints(field, values, 1) if field.modulus else cls(field, values)

    @classmethod
    def _from_ints(cls, field: FieldSpec, nums, den: int) -> "Poly":
        """nums / den reduced mod p over F_p (den 1); over Q, den > 0 and content 1."""
        p = field.modulus
        if p:
            nums = [v % p for v in nums]
        else:
            g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
            if g != 1:
                den, nums = den // g, [v // g for v in nums]
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        out = cls.__new__(cls)
        out.field, out._values, out._den = field, tuple(nums[:n]), den
        return out

    @property
    def coeffs(self) -> tuple:
        return tuple([self[i] for i in range(len(self._values))])

    @property
    def degree(self):
        return len(self._values) - 1 if self._values else NEG_INF

    def is_zero(self) -> bool:
        return not self._values

    def is_monic(self) -> bool:
        return bool(self._values) and self._values[-1] == self._den

    def lc(self) -> Scalar:
        """Leading coefficient; zero for the zero polynomial."""
        return self[len(self._values) - 1]

    def __getitem__(self, i: int) -> Scalar:
        if 0 <= i < len(self._values):
            if self.field.modulus:
                return Scalar(self.field, self._values[i])
            return Scalar(self.field, Fraction(self._values[i], self._den))
        return self.field.zero()

    def _check(self, other) -> bool:
        """False for an operand that is not a Poly; FieldMismatch for one
        over another field."""
        if not isinstance(other, Poly):
            return False
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch("polynomials over different fields")
        return True

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.field, self._values, self._den) == (other.field, other._values, other._den)

    def __hash__(self):
        return hash((self.field, self._values, self._den))

    def __add__(self, other):
        if not self._check(other):
            return NotImplemented
        a, b, den = self._values, other._values, self._den
        if den != other._den:
            den = lcm(den, other._den)
            a, b = [x * (den // self._den) for x in a], [y * (den // other._den) for y in b]
        if len(a) < len(b):
            a, b = b, a
        return Poly._from_ints(self.field, [x + y for x, y in zip(a, b)] + list(a[len(b) :]), den)

    def __sub__(self, other):
        if not self._check(other):
            return NotImplemented
        a, b, den = self._values, other._values, self._den
        if den != other._den:
            den = lcm(den, other._den)
            a, b = [x * (den // self._den) for x in a], [y * (den // other._den) for y in b]
        n = min(len(a), len(b))
        out = [x - y for x, y in zip(a, b)] + list(a[n:]) + [-y for y in b[n:]]
        return Poly._from_ints(self.field, out, den)

    def __neg__(self):
        return Poly._from_ints(self.field, [-c for c in self._values], self._den)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            s = self.field._value(other)
            n, d = s.numerator, s.denominator
            return Poly._from_ints(self.field, [c * n for c in self._values], self._den * d)
        if not self._check(other):
            return NotImplemented
        a, b = self._values, other._values
        if not a or not b:
            return Poly(self.field)
        m = len(b)
        out = [0] * (len(a) + m - 1)
        for i, x in enumerate(a):
            out[i : i + m] = [o + x * y for o, y in zip(out[i : i + m], b)]
        return Poly._from_ints(self.field, out, self._den * other._den)

    __rmul__ = __mul__

    def _shift(self, k: int) -> "Poly":
        """x^k * self: k zeros in front, the same denominator and content."""
        out = Poly.__new__(Poly)
        out.field, out._den = self.field, self._den
        out._values = (0,) * k + self._values if self._values else ()
        return out

    def __divmod__(self, other):
        """Exact long division: self = q*other + r with deg r < deg other.

        Over Q: pseudo-division lc^e A = Q B + R on the numerators, each step
        exact; q = Q * other._den / (self._den * lc^e), r = R / (self._den * lc^e).
        """
        if not self._check(other):
            return NotImplemented
        if other.is_zero():
            raise DivisionByZeroPoly("division by the zero polynomial")
        if self.degree < other.degree:
            return Poly(self.field), self
        p = self.field.modulus
        rem, b = list(self._values), other._values
        m = len(b) - 1
        lc = b[m]
        if p:
            inv_lc, scale = pow(lc, -1, p), 1
        else:
            scale = lc ** (len(rem) - m)
            rem = [r * scale for r in rem]
        b = b[:m]
        quo = [0] * (len(rem) - m)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + m] * inv_lc % p if p else rem[k + m] // lc
            quo[k] = c
            if c:
                rem[k : k + m] = [r - c * y for r, y in zip(rem[k : k + m], b)]
        if not p:
            quo = [c * other._den for c in quo]
        den = self._den * scale
        return Poly._from_ints(self.field, quo, den), Poly._from_ints(self.field, rem[:m], den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, at: Scalar) -> Scalar:
        """Horner evaluation; over Q on ints, homogenised in x = xn / xd."""
        x = self.field._value(at)
        p = self.field.modulus
        if p:
            acc = 0
            for c in reversed(self._values):
                acc = (acc * x + c) % p
            return Scalar(self.field, acc)
        xn, xd, acc, w = x.numerator, x.denominator, 0, 1
        for c in reversed(self._values):
            acc, w = acc * xn + c * w, w * xd
        return Scalar(self.field, Fraction(acc * xd, self._den * w))

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
    return Poly._from_ints(field, [0] * k + [1], 1)


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


def inverse_mod(a: Poly, m: Poly):
    """s with (s * a) mod m = 1 and deg s < deg m, or None when
    gcd(a, m) is not constant.

    The extended Euclidean algorithm on (m, a) that carries only the
    cofactor of a: each remainder r_i = s_i * a (mod m).
    """
    r0, r1 = m, a
    s0, s1 = Poly(a.field), Poly(a.field, [1])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        return None
    return s0 * r0.lc().inverse()
