"""Command-line front end.

Subcommands:

  add           coordinate addition (--method groupoid|cantor|both)
  invert        the groupoid involution
  anchor        project a point to its curve coefficients
  random-point  deterministic on-curve sampling
  cantor-add    divisor arithmetic on Mumford pairs
  verify        seeded property suites with JSON reports

Exit codes: 0 success, 1 assertion or property failure (counterexample
JSON on stderr), 2 usage or parse error, 3 degenerate configuration on a
direct add (the message names the total fallback, --method cantor).
"""

import argparse
import json
import random
import sys

from . import closedform, identities
from .cantor import cantor_add, from_mumford, to_mumford
from .errors import AnchorMismatch, DegenerateConfiguration, HypaddError, InvariantViolation
from .errors import NonGenericDivisor, NotOnJacobian, TooFewPoints
from .field import field_from_string
from .groupoid import CurveParams, anchor, grade_scale, invert, rank_witness, star
from .jsonio import curve_from_json, curve_to_json, divisor_from_json, divisor_to_json, dumps
from .jsonio import point_from_json, point_to_json, vector_to_json
from .sampling import random_curve_fp, sample_pair_q, sample_point_fp, sample_point_q_on_template

USAGE_ERROR = 2
FAILURE = 1
DEGENERATE = 3

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypadd", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, curve_required=True, genus_help="must match the curve file's genus"):
        p.add_argument("--curve", required=curve_required, help="curve JSON file")
        p.add_argument("--field", help="override the curve file's field (q or fp:P)")
        p.add_argument("--genus", type=int, help=genus_help)

    p_add = sub.add_parser("add", help="add two points over a shared curve")
    common(p_add)
    p_add.add_argument("--a", required=True, help="first point JSON file")
    p_add.add_argument("--b", required=True, help="second point JSON file")
    p_add.add_argument("--method", choices=["groupoid", "cantor", "both"], default="groupoid")

    p_inv = sub.add_parser("invert", help="flip the odd part of a point")
    common(p_inv)
    p_inv.add_argument("--a", required=True)

    p_anchor = sub.add_parser("anchor", help="curve coefficients under a point")
    common(p_anchor)
    p_anchor.add_argument("--a", required=True)

    p_rand = sub.add_parser("random-point", help="sample an on-curve point")
    common(p_rand)
    p_rand.add_argument("--seed", type=int, default=0)

    p_cadd = sub.add_parser("cantor-add", help="add two Mumford divisors")
    common(p_cadd)
    p_cadd.add_argument("--a", required=True, help="first divisor JSON file")
    p_cadd.add_argument("--b", required=True, help="second divisor JSON file")

    p_verify = sub.add_parser("verify", help="run seeded property suites")
    common(p_verify, False, "genus when no curve file is given")
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--props",
        default=",".join(KNOWN_PROPS),
        help="comma-separated subset of the known properties",
    )
    return parser


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_curve(args) -> CurveParams:
    obj = _read_json(args.curve)
    if args.field and isinstance(obj, dict):
        obj = {**obj, "field": args.field}
    c = curve_from_json(obj)
    if args.genus is not None and args.genus != c.genus:
        raise ValueError(f"--genus {args.genus} contradicts curve genus {c.genus}")
    return c


def _load_point(path: str, c: CurveParams):
    return point_from_json(c.field, _read_json(path))


def _require_on_curve(a, c: CurveParams, label: str):
    """a's divisor, or AnchorMismatch when a does not sit over c."""
    try:
        return to_mumford(a, c)
    except NotOnJacobian as exc:
        raise AnchorMismatch(f"point {label} does not sit over the given curve") from exc


def _cmd_add(args) -> int:
    c = _load_curve(args)
    a, b = _load_point(args.a, c), _load_point(args.b, c)
    da, db = _require_on_curve(a, c, "--a"), _require_on_curve(b, c, "--b")

    def by_cantor():
        d = cantor_add(da, db, c)
        try:
            return from_mumford(d, c)
        except NonGenericDivisor as exc:
            raise _Failure(
                {
                    "error": "NonGenericDivisor",
                    "detail": str(exc),
                    "hint": "use cantor-add to see the sub-generic divisor",
                    "divisor": divisor_to_json(d),
                }
            ) from exc

    if args.method == "groupoid":
        result = star(a, b)
    elif args.method == "cantor":
        result = by_cantor()
    else:
        result = star(a, b)
        other = by_cantor()
        if result != other:
            raise _Failure(
                {
                    "error": "MethodMismatch",
                    "groupoid": point_to_json(result),
                    "cantor": point_to_json(other),
                }
            )
    print(dumps(point_to_json(result)))
    return 0


def _cmd_invert(args) -> int:
    c = _load_curve(args)
    a = _load_point(args.a, c)
    print(dumps(point_to_json(invert(a))))
    return 0


def _cmd_anchor(args) -> int:
    c = _load_curve(args)
    a = _load_point(args.a, c)
    z1, z2 = anchor(a)
    print(dumps({"z1": vector_to_json(z1), "z2": vector_to_json(z2)}))
    return 0


def _cmd_random_point(args) -> int:
    c = _load_curve(args)
    rng = random.Random(f"{args.seed}:random-point")
    if c.field.modulus == 0:
        fitted, point = sample_point_q_on_template(c, rng)
        print(dumps({"curve": curve_to_json(fitted), "point": point_to_json(point)}))
    else:
        point = sample_point_fp(c, rng)
        print(dumps({"curve": curve_to_json(c), "point": point_to_json(point)}))
    return 0


def _cmd_cantor_add(args) -> int:
    c = _load_curve(args)
    d1 = divisor_from_json(c.field, _read_json(args.a))
    d2 = divisor_from_json(c.field, _read_json(args.b))
    print(dumps(divisor_to_json(cantor_add(d1, d2, c))))
    return 0


class _Failure(Exception):
    """Property or assertion failure carrying a counterexample document."""

    def __init__(self, doc: dict):
        super().__init__(doc.get("error", "failure"))
        self.doc = doc


def _trial_rng(seed: int, prop: str, trial: int) -> random.Random:
    return random.Random(f"{seed}:{prop}:{trial}")


def _sample_pair(field, genus, curve, rng):
    """Returns (curve, a, b) with shared anchors."""
    if field.modulus == 0:
        return sample_pair_q(genus, rng)
    c = curve
    if c is None:
        c = random_curve_fp(field, genus, rng)
    return c, sample_point_fp(c, rng), sample_point_fp(c, rng)


def _run_prop(prop, field, genus, curve, trials, seed):
    passes = failures = skipped = 0
    skipped_by_reason = {}
    examples = []
    if prop == "closedform" and genus not in (1, 2):
        return {"status": "skipped", "reason": "closed forms exist for genus 1 and 2 only"}, []
    for trial in range(trials):
        rng = _trial_rng(seed, prop, trial)
        try:
            c, a, b = _sample_pair(field, genus, curve, rng)
            ok = KNOWN_PROPS[prop](c, a, b, rng)
        except (DegenerateConfiguration, TooFewPoints) as exc:
            reason = getattr(exc, "stage", None) or type(exc).__name__
            skipped_by_reason[reason] = skipped_by_reason.get(reason, 0) + 1
            skipped += 1
            continue
        if ok:
            passes += 1
        else:
            failures += 1
            if len(examples) < 3:
                examples.append(
                    {
                        "trial": trial,
                        "curve": curve_to_json(c),
                        "a": point_to_json(a),
                        "b": point_to_json(b),
                    }
                )
    report = {
        "pass": failures == 0,
        "trials": trials,
        "passes": passes,
        "failures": failures,
        "skipped": skipped,
        "skipped_by_reason": skipped_by_reason,
    }
    return report, examples


def _assoc(c, a, b, rng) -> bool:
    """With a further point d on the pair's anchor: over Q, b - a, so no star doubles."""
    d = sample_point_fp(c, rng) if c.field.modulus else star(invert(a), b)
    return star(star(a, b), d) == star(a, star(b, d))


def _grading(c, a, b, rng) -> bool:
    t = _nonzero_scale(c.field, rng)
    ga, gb, gs = (grade_scale(x, c, t)[0] for x in (a, b, star(a, b)))
    return star(ga, gb) == gs


def _oracle(c, a, b, rng) -> bool:
    want = star(a, b)
    try:
        got = from_mumford(cantor_add(to_mumford(a, c), to_mumford(b, c), c), c)
    except NonGenericDivisor:
        # a reduced divisor is unique in its class, so star's degree-g
        # answer and a non-generic Cantor sum cannot both be right
        return False
    return got == want


# Each verify property, in report order, and its check (c, a, b, rng) -> bool.
KNOWN_PROPS = {
    "assoc": _assoc,
    "comm": lambda c, a, b, rng: star(a, b) == star(b, a),
    "inverse": lambda c, a, b, rng: star(star(a, b), invert(b)) == a,
    "anchor": lambda c, a, b, rng: anchor(star(a, b)) == anchor(a),
    "rank": lambda c, a, b, rng: rank_witness(a, b, star(a, b)),
    "grading": _grading,
    "oracle": _oracle,
    "pgg": lambda c, a, b, rng: identities.check_pgg_sum(a, b),
    "closedform": lambda c, a, b, rng: (
        (closedform.g1_add if c.genus == 1 else closedform.g2_add)(a, b) == star(a, b)
    ),
}


def _nonzero_scale(field, rng):
    if field.modulus == 0:
        return field.scalar(rng.choice([n for n in range(-9, 10) if n]))
    return field.scalar(rng.randrange(1, field.modulus))


def _cmd_verify(args) -> int:
    curve = None
    if args.curve is not None:
        curve = _load_curve(args)
        field = curve.field
        genus = curve.genus
    else:
        if not args.field or args.genus is None:
            raise ValueError("verify needs --curve, or both --field and --genus")
        field = field_from_string(args.field)
        genus = args.genus
    if genus < 1:
        raise ValueError(f"--genus must be at least 1, got {genus}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    props = list(dict.fromkeys([p.strip() for p in args.props.split(",") if p.strip()]))
    if not props:
        raise ValueError(f"--props {args.props!r} selects no property")
    for p in props:
        if p not in KNOWN_PROPS:
            raise ValueError(f"unknown property {p!r}")
    report = {
        "command": "verify",
        "field": field.to_string(),
        "genus": genus,
        "seed": args.seed,
        "trials": args.trials,
        "props": {},
    }
    all_examples = []
    ok = True
    for prop in props:
        prop_report, examples = _run_prop(prop, field, genus, curve, args.trials, args.seed)
        report["props"][prop] = prop_report
        ok = ok and prop_report.get("pass", True)
        for e in examples:
            e["prop"] = prop
            all_examples.append(e)
    report["ok"] = ok
    print(dumps(report))
    for e in all_examples:
        print(dumps(e), file=sys.stderr)
    return 0 if ok else FAILURE


HANDLERS = {
    "add": _cmd_add,
    "invert": _cmd_invert,
    "anchor": _cmd_anchor,
    "random-point": _cmd_random_point,
    "cantor-add": _cmd_cantor_add,
    "verify": _cmd_verify,
}
_PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return HANDLERS[args.command](args)
    except _Failure as exc:
        doc, code = exc.doc, FAILURE
    except (HypaddError, ValueError, KeyError, OSError) as exc:
        doc, code = {"error": type(exc).__name__, "detail": str(exc)}, USAGE_ERROR
        if isinstance(exc, InvariantViolation):
            code = FAILURE
        elif isinstance(exc, DegenerateConfiguration):
            doc.update(stage=exc.stage, fallback="re-run with --method cantor")
            code = DEGENERATE
    print(dumps(doc), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())
