"""JSON encodings for curves, points, and divisors.

Scalars over the rationals travel as strings "n" or "n/d"; scalars over
F_p as plain decimal integers in [0, p).  Curve files list the 2g lambda
coefficients ascending by weight (lam_4 first); in memory both halves
are kept highest weight first, so the file order is reversed per half on
the way in and out.  Point files mirror the in-memory order (highest
weight first).  Divisor files hold ascending coefficient arrays.  A
file of the wrong shape raises ValueError naming the bad field.
"""

import json

from .cantor import MumfordDivisor
from .field import FieldSpec, field_from_string
from .groupoid import CurveParams, GroupoidPoint
from .poly import Poly


def scalar_to_json(s):
    if s.field.modulus == 0:
        return s.to_string()
    return s.value


def scalar_from_json(field: FieldSpec, v):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"bad scalar encoding {v!r}")
    return field.scalar(v if isinstance(v, int) else str(v))


def vector_to_json(vec):
    return [scalar_to_json(s) for s in vec]


def vector_from_json(field, items, name: str = "vector"):
    if not isinstance(items, (list, tuple)):
        raise ValueError(f"{name} must be a JSON array, got {items!r}")
    return tuple(scalar_from_json(field, v) for v in items)


def _object(obj, name: str) -> dict:
    """obj itself, which must be a JSON object: a ValueError names `name`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object, got {obj!r}")
    return obj


def curve_to_json(c: CurveParams) -> dict:
    ascending = list(reversed(c.lambda2)) + list(reversed(c.lambda1))
    return {
        "genus": c.genus,
        "field": c.field.to_string(),
        "lambda": vector_to_json(ascending),
    }


def curve_from_json(obj: dict) -> CurveParams:
    genus = _object(obj, "curve")["genus"]
    if isinstance(genus, bool) or not isinstance(genus, int) or genus < 1:
        raise ValueError("genus must be a positive integer")
    field = field_from_string(obj["field"])
    lam = vector_from_json(field, obj["lambda"], "lambda")
    if len(lam) != 2 * genus:
        raise ValueError(f"expected {2 * genus} lambda values, got {len(lam)}")
    lambda2 = tuple(reversed(lam[:genus]))
    lambda1 = tuple(reversed(lam[genus:]))
    return CurveParams(genus, lambda1, lambda2)


def point_to_json(a: GroupoidPoint) -> dict:
    return {
        "p_even": vector_to_json(a.p_even),
        "p_odd": vector_to_json(a.p_odd),
        "z": vector_to_json(a.z),
    }


def point_from_json(field: FieldSpec, obj: dict) -> GroupoidPoint:
    obj = _object(obj, "point")
    return GroupoidPoint(*[vector_from_json(field, obj[k], k) for k in ("p_even", "p_odd", "z")])


def divisor_to_json(d: MumfordDivisor) -> dict:
    return {
        "u": vector_to_json(d.u.coeffs),
        "v": vector_to_json(d.v.coeffs),
    }


def divisor_from_json(field: FieldSpec, obj: dict) -> MumfordDivisor:
    obj = _object(obj, "divisor")
    u, v = (Poly(field, vector_from_json(field, obj[k], k)) for k in ("u", "v"))
    return MumfordDivisor(u, v)


def dumps(obj) -> str:
    """Canonical JSON text: sorted keys, no trailing whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
