"""Exact coefficient fields.

Two fields are supported: the rationals, backed by fractions.Fraction,
and prime fields F_p for odd primes p, backed by ints reduced to the
canonical range [0, p).  Every Scalar remembers the FieldSpec it came
from, and mixed-field arithmetic raises FieldMismatch instead of
guessing a coercion.

Scalars live at the API: every coefficient, entry and coordinate a
caller sees or passes in is one.  The loops inside poly, linalg and
groupoid compute on the bare values instead (Fractions over Q, ints
over F_p), reduce them with `% p` where the modulus is nonzero, and box
the results once through FieldSpec._box.

Characteristic 2 is rejected up front: the curve model and the addition
law divide by 2 freely.
"""

from fractions import Fraction

from .errors import EvenCharacteristic, FieldMismatch, NonPrimeModulus

RATIONALS = "q"
PRIME = "fp"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """A coefficient field: the rationals (modulus 0) or F_p."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int = 0):
        self.modulus = modulus

    @property
    def kind(self) -> str:
        return RATIONALS if self.modulus == 0 else PRIME

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
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise FieldMismatch(f"scalar from {value.field}, not {self}")
            return value
        if isinstance(value, str):
            return self._parse(value)
        if self.modulus == 0:
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            num = value.numerator % self.modulus
            den = value.denominator % self.modulus
            return Scalar(self, num * pow(den, -1, self.modulus) % self.modulus)
        return Scalar(self, value % self.modulus)

    def _parse(self, text: str) -> "Scalar":
        text = text.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.scalar(Fraction(int(num), int(den)))
        if self.modulus == 0:
            return Scalar(self, Fraction(int(text)))
        return Scalar(self, int(text) % self.modulus)

    def _box(self, values) -> tuple:
        """Scalars of this field from bare values: Fractions over Q, any
        ints over F_p (reduced here)."""
        p = self.modulus
        if p:
            values = [v % p for v in values]
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
    """Construct a FieldSpec, validating the modulus for prime fields."""
    if kind == RATIONALS:
        return FieldSpec(0)
    if kind != PRIME:
        raise ValueError(f"unknown field kind {kind!r}")
    if modulus is None:
        raise ValueError("prime field needs a modulus")
    if modulus == 2:
        raise EvenCharacteristic("characteristic 2 is not supported")
    if not _is_prime(modulus):
        raise NonPrimeModulus(f"{modulus} is not prime")
    return FieldSpec(modulus)


def field_from_string(text: str) -> FieldSpec:
    """Parse "q" or "fp:<p>"."""
    if text == "q":
        return make_field(RATIONALS)
    if text.startswith("fp:"):
        return make_field(PRIME, int(text[3:]))
    raise ValueError(f"bad field string {text!r}")


def _inverse_value(value, modulus: int):
    """Inverse of a nonzero bare value: a Fraction over Q (modulus 0),
    a residue in [0, p) over F_p."""
    return pow(value, -1, modulus) if modulus else 1 / value


class Scalar:
    """One field element.  Immutable; all arithmetic stays in the field."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        self.field = field
        self.value = value

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
        if self.field.modulus == 0:
            return Scalar(self.field, self.value + other.value)
        return Scalar(self.field, (self.value + other.value) % self.field.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.modulus == 0:
            return Scalar(self.field, self.value - other.value)
        return Scalar(self.field, (self.value - other.value) % self.field.modulus)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.field.modulus == 0:
            return Scalar(self.field, self.value * other.value)
        return Scalar(self.field, (self.value * other.value) % self.field.modulus)

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
        if self.field.modulus == 0:
            return Scalar(self.field, -self.value)
        return Scalar(self.field, (-self.value) % self.field.modulus)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.field.modulus == 0:
            return Scalar(self.field, self.value**exponent)
        return Scalar(self.field, pow(self.value, exponent, self.field.modulus))

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
