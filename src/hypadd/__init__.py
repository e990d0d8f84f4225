"""Exact addition on the universal space of hyperelliptic Jacobians.

Points of genus g live in a 3g-dimensional coordinate space fibered over
the space of curves; the fiber map is `anchor` and the fiberwise group
law is `star`.  `cantor` holds the divisor-arithmetic oracle, and
`closedform` the genus 1 and 2 rational addition laws.
"""

from .cantor import (
    MumfordDivisor,
    cantor_add,
    cantor_neg,
    divisor_valid,
    from_mumford,
    identity_divisor,
    to_mumford,
)
from .closedform import g1_add, g2_add
from .errors import (
    AnchorMismatch,
    DegenerateConfiguration,
    HypaddError,
    NonGenericDivisor,
    NonzeroRemainder,
    NotOnJacobian,
)
from .field import FieldSpec, Scalar, field_from_string, make_field
from .groupoid import (
    CurveParams,
    GroupoidPoint,
    RFunction,
    StarResult,
    anchor,
    curve_from_anchor,
    curve_poly,
    grade_scale,
    invert,
    rank_witness,
    star,
    star_detail,
    u_poly,
    v_poly,
    viete_phi,
)
from .poly import Poly

__version__ = "0.1.0"

__all__ = [
    "AnchorMismatch",
    "CurveParams",
    "DegenerateConfiguration",
    "FieldSpec",
    "GroupoidPoint",
    "HypaddError",
    "MumfordDivisor",
    "NonGenericDivisor",
    "NonzeroRemainder",
    "NotOnJacobian",
    "Poly",
    "RFunction",
    "Scalar",
    "StarResult",
    "anchor",
    "cantor_add",
    "cantor_neg",
    "curve_from_anchor",
    "curve_poly",
    "divisor_valid",
    "field_from_string",
    "from_mumford",
    "g1_add",
    "g2_add",
    "grade_scale",
    "identity_divisor",
    "invert",
    "make_field",
    "rank_witness",
    "star",
    "star_detail",
    "to_mumford",
    "u_poly",
    "v_poly",
    "viete_phi",
]
