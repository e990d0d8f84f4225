"""Exact coefficient fields.

Two fields are supported: the rationals, backed by fractions.Fraction,
and prime fields F_p for odd primes p, backed by ints reduced to the
canonical range [0, p).  Every Scalar remembers the FieldSpec it came
from, and mixed-field arithmetic raises FieldMismatch instead of
guessing a coercion.

A Scalar holds its canonical value: `Scalar(field, v)` reduces an int
into [0, p) over F_p and keeps a Q value as given, so arithmetic builds
its result from the raw sum or product, and equal elements compare and
hash equal.  Scalars live at the API: every coefficient and coordinate
a caller sees or passes in is one.  `Poly`, the points and curves of
`groupoid` and the divisors of `cantor` store bare values: ints in
[0, p) over F_p, and over Q int numerators over one denominator, made
Fractions only when read by `poly._read_values`.
FieldSpec._value converts what enters them and raises ValueError on a
denominator that is 0 (or 0 mod p), and _box builds Scalars on read.

The FieldSpec constructor checks a nonzero modulus by deterministic
Miller-Rabin, which is exact below 3.3e24; a larger one that passes is
refused, never assumed prime.

Characteristic 2 is rejected up front: the curve model and the addition
law divide by 2 freely.
"""

from fractions import Fraction

from .errors import EvenCharacteristic, FieldMismatch, NonPrimeModulus, UncertifiedModulus

RATIONALS = "q"
PRIME = "fp"


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  A composite is always found; a number
    at or above the bound that passes every base raises
    UncertifiedModulus rather than being accepted as a probable prime."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise UncertifiedModulus(f"{n} passes Miller-Rabin but is too large to certify as prime")
    return True


class FieldSpec:
    """A coefficient field: the rationals (modulus 0) or F_p."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int = 0):
        if type(modulus) is not int:
            raise ValueError(f"the modulus must be an int, got {modulus!r}")
        if modulus == 2:
            raise EvenCharacteristic("characteristic 2 is not supported")
        if modulus and not _is_prime(modulus):
            raise NonPrimeModulus(f"{modulus} is not prime")
        self.modulus = modulus

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("FieldSpec", self.modulus))

    def __repr__(self):
        if self.modulus == 0:
            return "FieldSpec(Q)"
        return f"FieldSpec(F_{self.modulus})"

    def scalar(self, value) -> "Scalar":
        """Wrap an int, Fraction, or decimal/fraction string as a Scalar."""
        if isinstance(value, Scalar) and value.field is self:
            return value
        return Scalar(self, value if type(value) is int and self.modulus else self._value(value))

    def _value(self, value):
        """The bare value of an int, Fraction, string or Scalar of this field,
        a Fraction over Q or a residue in [0, p) over F_p; ValueError else."""
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise FieldMismatch(f"scalar from {value.field}, not {self}")
            return value.value
        if isinstance(value, str):
            text = value.strip()
            if "/" in text:
                num, den = text.split("/", 1)
                if int(den) == 0:
                    raise ValueError(f"{value!r} has a zero denominator")
                return self._value(Fraction(int(num), int(den)))
            value = int(text)
        if self.modulus == 0:
            if type(value) is Fraction:
                return value
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
        elif isinstance(value, int):
            return value % self.modulus
        elif isinstance(value, Fraction):
            num = value.numerator % self.modulus
            den = value.denominator % self.modulus
            if not den:
                raise ValueError(f"{value} has no value in {self}: its denominator is 0 mod p")
            return num * pow(den, -1, self.modulus) % self.modulus
        raise ValueError(f"{value!r} is not an int, a Fraction, a string or a Scalar of {self}")

    def _box(self, values) -> tuple:
        """Scalars of this field from bare values, made canonical by Scalar."""
        return tuple([Scalar(self, v) for v in values])

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def to_string(self) -> str:
        """Encoding used by the JSON interfaces: "q" or "fp:<p>"."""
        if self.modulus == 0:
            return "q"
        return f"fp:{self.modulus}"


def make_field(kind: str, modulus: int | None = None) -> FieldSpec:
    """Construct a FieldSpec; FieldSpec itself validates a prime modulus."""
    if kind == RATIONALS:
        if modulus is not None:
            raise ValueError(f"the rationals take no modulus, got {modulus!r}")
        return FieldSpec(0)
    if kind != PRIME:
        raise ValueError(f"unknown field kind {kind!r}")
    if modulus is None:
        raise ValueError("prime field needs a modulus")
    if modulus == 0 and type(modulus) is int:
        raise NonPrimeModulus("0 is not prime")
    return FieldSpec(modulus)


def field_from_string(text: str) -> FieldSpec:
    """Parse "q" or "fp:<p>"."""
    if text == "q":
        return make_field(RATIONALS)
    if isinstance(text, str) and text.startswith("fp:"):
        return make_field(PRIME, int(text[3:]))
    raise ValueError(f"bad field string {text!r}")


def _inverse_value(value, modulus: int):
    """Inverse of a nonzero bare value: a residue in [0, p) over F_p, and
    over Q (modulus 0) an exact Fraction, also for an int."""
    return pow(value, -1, modulus) if modulus else Fraction(value.denominator, value.numerator)


class Scalar:
    """One field element.  Immutable; all arithmetic stays in the field."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        self.field = field
        self.value = value % field.modulus if field.modulus else value

    def _lift(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value - other.value)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.value * other.value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return Scalar(self.field, -self.value)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return Scalar(self.field, pow(self.value, exponent, self.field.modulus or None))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return Scalar(self.field, _inverse_value(self.value, self.field.modulus))

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            return False
        return self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return self.to_string()

    def to_string(self) -> str:
        """Canonical text form: "n" or "n/d" over Q, decimal in [0,p) over F_p."""
        if self.field.modulus == 0:
            if self.value.denominator == 1:
                return str(self.value.numerator)
            return f"{self.value.numerator}/{self.value.denominator}"
        return str(self.value)
