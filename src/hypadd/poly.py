"""Dense univariate polynomials over an exact field.

A polynomial is ascending int numerators, trailing zeros stripped (zero
is empty, of degree -inf), over one denominator: residues in [0, p)
over 1 on F_p; over Q a denominator > 0 with gcd(den, *nums) = 1, as
FLINT's fmpq_poly (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 6).  The kernels `_add`, `_neg`, `_mul`, `_divmod`, `_monic` and the
one extended Euclid `_euclid`, which carries only the cofactor of its
first operand, compute on such (nums, den) pairs with the modulus p (0
for Q) and return that canonical form.  Over F_p the contract is
canonical residue tuples in and out: each kernel reduces mod p in the
pass that computes its result and strips zeros with `_trim`, with no
second pass, and the packed word bounds below hold only for residues.
`_norm` canonicalises Q results and raw int lists.  Over F_p, `_mul`
and `_divmod` run on operands packed into one int, one 64-bit word per
coefficient (`_pack`), whenever a bound on p and the lengths proves that
no word overflows: a product is then one C big-int multiply (Kronecker
substitution, as FLINT's nmod_poly; Modern Computer Algebra, section
8.4), and long division updates one packed remainder per quotient term.
A factor of length 2 or less, a divisor of degree 2 or less, a large p
and Q take the coefficient loops.  `_inverse` (for `star`) and `xgcd`
(for Cantor) are thin callers of `_euclid`: `xgcd` takes two kernel
pairs and p and returns (d, s), d = gcd(a, b) monic and s a = d (mod b),
raising BothZero on two zeros; nothing computes the cofactor of b.
`Poly` is the API shell over the kernels: each method but `p[i]` is one
kernel call plus `_wrap` or `_read` (evaluation at a is the remainder by
x - a), and its reads `coeffs`, `p[i]`, `lc()` and evaluation give
Scalars that hold Fractions over Q.  `groupoid` and `cantor` call the
kernels directly.  `_read_values` reads a kernel pair as bare values
(ints over F_p, Fractions over Q) for the closed forms and
`grade_scale`; `_read`, its box, gives Scalars to `Poly` and `groupoid`."""

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm

from .errors import BothZero, DivisionByZeroPoly, FieldMismatch
from .field import FieldSpec, Scalar

NEG_INF = float("-inf")
_WORD = array("Q").itemsize * 8  # bits per coefficient of a packed int
_MASK = (1 << _WORD) - 1
_SWAP = sys.byteorder == "big"  # packed words are little-endian


def _ints(values, p: int):
    """Bare field values as (int numerators, one denominator): residues
    over 1 on F_p; on Q over the lcm of the denominators, content 1."""
    if p:
        return [v % p for v in values], 1
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _trim(nums, den: int = 1):
    """(nums as a tuple without trailing zeros, den)."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    return tuple(nums[:n] if n < len(nums) else nums), den


def _norm(nums, den: int, p: int):
    """nums / den as a tuple reduced mod p over F_p (den 1); over Q,
    den > 0 and content 1.  Trailing zeros are stripped."""
    if p:
        nums = [v % p for v in nums]
    else:
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            den, nums = den // g, [v // g for v in nums]
    return _trim(nums, den)


def _read_values(field: FieldSpec, pair, n: int, sign: int = 1) -> list:
    """The first n coefficients of a kernel pair, times sign and zero-padded, as bare values."""
    nums, den = pair
    vals = [sign * c for c in nums[:n]] + [0] * (n - len(nums[:n]))
    return vals if field.modulus else [Fraction(c, den) for c in vals]


def _read(field: FieldSpec, pair, n: int, sign: int = 1) -> tuple:
    """The first n coefficients of a kernel pair, times sign and zero-padded, as Scalars."""
    return field._box(_read_values(field, pair, n, sign))


def _add(a, da: int, b, db: int, p: int, sign: int = 1):
    """a/da + sign * b/db, for sign 1 or -1."""
    n = min(len(a), len(b))
    if p:
        if sign > 0:
            return _trim([(x + y) % p for x, y in zip(a, b)] + list(a[n:]) + list(b[n:]))
        return _trim([(x - y) % p for x, y in zip(a, b)] + list(a[n:]) + [-y % p for y in b[n:]])
    if da != db:
        den = lcm(da, db)
        a, b, da = [x * (den // da) for x in a], [y * (den // db) for y in b], den
    if sign > 0:
        out = [x + y for x, y in zip(a, b)] + list(a[n:]) + list(b[n:])
    else:
        out = [x - y for x, y in zip(a, b)] + list(a[n:]) + [-y for y in b[n:]]
    return _norm(out, da, p)


def _neg(a, p: int):
    if p:
        return tuple([-t % p for t in a[0]]), 1
    return _norm([-t for t in a[0]], a[1], p)


def _pack(a) -> int:
    """The ints a, each in [0, 2^_WORD), as one int whose _WORD-bit word i
    is a[i] on any host; array("Q") raises for any other value."""
    words = array("Q", a)
    if _SWAP:
        words.byteswap()
    return int.from_bytes(words, "little")


def _unpack(x: int, n: int):
    """The n words of a packed int x < 2^(n _WORD), lowest first."""
    words = array("Q", x.to_bytes(n * _WORD // 8, "little"))
    if _SWAP:
        words.byteswap()
    return words


def _mul(a, da: int, b, db: int, p: int):
    """(a/da) * (b/db) by schoolbook convolution, or over F_p by Kronecker
    substitution, one multiply of the packed ints.  That path needs
    n = min(len a, len b) > 2 and 2 P + n.bit_length() <= _WORD for P the
    bit length of p: each product word sums at most n terms below p^2, so
    it stays below 2^_WORD and carries nothing into the next word.  The
    bound holds only for residues in [0, p), the F_p operand contract."""
    if not a or not b:
        return (), 1
    m = len(b)
    if p and (n := min(len(a), m)) > 2 and 2 * p.bit_length() + n.bit_length() <= _WORD:
        return tuple([w % p for w in _unpack(_pack(a) * _pack(b), len(a) + m - 1)]), 1
    out = [0] * (len(a) + m - 1)
    for i, x in enumerate(a):
        out[i : i + m] = [o + x * y for o, y in zip(out[i : i + m], b)]
    if p:
        return tuple([v % p for v in out]), 1
    return _norm(out, da * db, p)


def _divmod(a, da: int, b, db: int, p: int):
    """Exact long division of canonical a/da by b/db: (quotient, remainder).
    Over Q pseudo-division lc^e A = Q B + R on the numerators, each step
    exact: q = Q db / (da lc^e), r = R / (da lc^e).  Over F_p, when
    m = deg b > 2 and 2 P + K < _WORD for P and K the bit lengths of p and
    of the quotient length k, it runs on one packed remainder: step j
    reads word j + m as w, sets q_j = c = w / lc mod p and adds
    (p - c) b x^j, so each word stays congruent mod p to the remainder's
    coefficient; a word starts below p and gains at most k terms below
    p^2, so it stays below p + k p^2 < 2^_WORD and carries nothing."""
    if not b:
        raise DivisionByZeroPoly("division by the zero polynomial")
    if len(a) < len(b):
        return ((), 1), (tuple(a), da)
    m, lc = len(b) - 1, b[-1]
    quo, scale = [0] * (len(a) - m), 1
    if p:
        inv_lc = 1 if lc == 1 else pow(lc, -1, p)
    else:
        scale = lc ** len(quo)
    if p and m > 2 and 2 * p.bit_length() + len(quo).bit_length() < _WORD:
        rem, packed_b = _pack(a), _pack(b)
        for j in range(len(quo) - 1, -1, -1):
            c = quo[j] = ((rem >> _WORD * (j + m)) & _MASK) * inv_lc % p
            if c:
                rem += (p - c) * packed_b << _WORD * j
        rem = _unpack(rem, len(a))
    else:
        rem = list(a) if p else [r * scale for r in a]
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + m] * inv_lc % p if p else rem[k + m] // lc
            quo[k] = c
            if c:
                rem[k : k + m] = [r - c * y for r, y in zip(rem[k : k + m], b)]
    if p:  # the quotient terms are residues already, and its top is nonzero
        return (tuple(quo), 1), _trim([r % p for r in rem[:m]])
    quo = [c * db for c in quo]
    return _norm(quo, da * scale, p), _norm(rem[:m], da * scale, p)


def _monic(a, p: int):
    """a / lc(a) for nonzero numerators a: their denominator cancels."""
    if p:  # the top becomes 1, so nothing is trimmed
        inv = pow(a[-1], -1, p)
        return tuple([v * inv % p for v in a]), 1
    return _norm(a, a[-1], p)


def _euclid(a, da: int, m, dm: int, p: int):
    """(g, s): g = gcd(a, m) monic and s with s * a = g (mod m), by
    Euclid on (a, m) carrying only the cofactor of a.  a and m are not
    both zero."""
    r0, r1, s0, s1 = (a, da), (m, dm), ((1,), 1), ((), 1)
    if len(a) < len(m):  # the first step would only swap the pairs
        r0, r1, s0, s1 = r1, r0, s1, s0
    while r1[0]:
        q, r = _divmod(*r0, *r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add(*s0, *_mul(*q, *s1, p), p, -1)
    (g, dg), c = r0, r0[0][-1]  # divide both by the leading coefficient c / dg
    n, d = (pow(c, -1, p), 1) if p else (dg, c)
    if p:  # each top is nonzero, and so is its product by n
        return (tuple([v * n % p for v in g]), 1), (tuple([v * n % p for v in s0[0]]), 1)
    return _norm([v * n for v in g], dg * d, p), _norm([v * n for v in s0[0]], s0[1] * d, p)


def _inverse(a, da: int, m, dm: int, p: int):
    """s with s * a = 1 mod m, deg s < deg m, or None when gcd(a, m) is not
    constant."""
    (g, _), s = _euclid(a, da, m, dm, p)
    return s if len(g) == 1 else None


class Poly:
    __slots__ = ("field", "_values", "_den")

    def __init__(self, field: FieldSpec, coeffs=()):
        self.field = field
        self._values, self._den = _trim(*_ints([field._value(c) for c in coeffs], field.modulus))

    @classmethod
    def _wrap(cls, field: FieldSpec, nums, den: int) -> "Poly":
        """The Poly of a kernel result: a canonical tuple over den."""
        out = cls.__new__(cls)
        out.field, out._values, out._den = field, nums, den
        return out

    @property
    def coeffs(self) -> tuple:
        return _read(self.field, (self._values, self._den), len(self._values))

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

    def __add__(self, other, sign: int = 1):
        if not self._check(other):
            return NotImplemented
        out = _add(self._values, self._den, other._values, other._den, self.field.modulus, sign)
        return Poly._wrap(self.field, *out)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return Poly._wrap(self.field, *_neg((self._values, self._den), self.field.modulus))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            other = Poly(self.field, [other])
        elif not self._check(other):
            return NotImplemented
        out = _mul(self._values, self._den, other._values, other._den, self.field.modulus)
        return Poly._wrap(self.field, *out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        """Exact long division: self = q*other + r with deg r < deg other."""
        if not self._check(other):
            return NotImplemented
        q, r = _divmod(self._values, self._den, other._values, other._den, self.field.modulus)
        return Poly._wrap(self.field, *q), Poly._wrap(self.field, *r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, at: Scalar) -> Scalar:
        """The value at a: the remainder by x - a (the remainder theorem)."""
        p = self.field.modulus
        _, rem = _divmod(self._values, self._den, *_ints([-self.field._value(at), 1], p), p)
        return _read(self.field, rem, 1)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return Poly._wrap(self.field, *_monic(self._values, self.field.modulus))

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
    return Poly._wrap(field, (0,) * k + (1,), 1)


def from_roots(field: FieldSpec, roots) -> Poly:
    """Monic polynomial with the given roots (with multiplicity)."""
    acc = Poly(field, [1])
    for r in roots:
        acc = acc * Poly(field, [-field.scalar(r), field.one()])
    return acc


def xgcd(a, da: int, b, db: int, p: int):
    """(d, s) on kernel pairs: d = gcd(a, b) monic and s * a = d (mod b),
    by `_euclid` on (a, b) in that order."""
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    return _euclid(a, da, b, db, p)
