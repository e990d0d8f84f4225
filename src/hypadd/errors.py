"""Shared exception types.

Every failure mode that callers are expected to branch on gets its own
class.  Internal consistency checks raise InvariantViolation rather than
using assert, so they still run under python -O.
"""


class HypaddError(Exception):
    """Base class for all library errors."""


class NonPrimeModulus(HypaddError):
    """Requested prime-field modulus is composite."""


class UncertifiedModulus(HypaddError):
    """Requested prime-field modulus is too large for the exact primality
    test; it is refused rather than accepted as a probable prime."""


class EvenCharacteristic(HypaddError):
    """Characteristic 2 is rejected: the curve model needs 2 invertible."""


class FieldMismatch(HypaddError):
    """Operands belong to different fields."""


class DivisionByZeroPoly(HypaddError):
    """Polynomial division by the zero polynomial."""


class BothZero(HypaddError):
    """gcd of two zero polynomials is undefined."""


class TooFewPoints(HypaddError):
    """A curve over F_p has fewer than g abscissas x with f(x) a square."""


class SingularMatrix(HypaddError):
    """Exact solve hit a singular coefficient matrix."""


class DegenerateConfiguration(HypaddError):
    """Pair of points outside the generic chart of the addition law.

    Doubling, shared u-polynomials, and any configuration that makes one
    of the law's linear systems singular land here.  The total fallback
    is the divisor-arithmetic path (cantor_add).

    `stage` names the step that refused, or is None where no stage was
    given: "h_solve" (the column difference L1 - L2 is singular),
    "det_lead" (the bordered determinant's leading cofactor vanishes),
    "odd_recovery" (r1 is not invertible mod u3) or "slope_den" (a
    closed-form slope has a zero denominator).
    """

    def __init__(self, *args, stage=None):
        super().__init__(*args)
        self.stage = stage


class AnchorMismatch(HypaddError):
    """Points do not project to the same base parameters."""


class InvariantViolation(HypaddError):
    """An internal consistency check failed: two routes that must agree
    disagree, or a result lacks a shape the algebra guarantees.  This is
    a bug in the library, not a property of the input."""


class NonzeroRemainder(InvariantViolation):
    """Exact polynomial division left a remainder where none is possible."""


class NotMonicDegree3g(InvariantViolation):
    """Norm polynomial failed its monic degree-3g shape check."""


class RepeatedAbscissa(HypaddError):
    """Point-list representation needs pairwise distinct x-coordinates."""


class NotOnJacobian(HypaddError):
    """Point and curve are inconsistent: u does not divide v^2 - f."""


class NonGenericDivisor(HypaddError):
    """Reduced divisor has degree below g and no coordinate image."""


class ZeroScale(HypaddError):
    """Grading action requires a nonzero scale factor."""
