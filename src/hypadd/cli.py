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
from .errors import (
    AnchorMismatch,
    DegenerateConfiguration,
    HypaddError,
    InvariantViolation,
    NonGenericDivisor,
    NotOnJacobian,
)
from .field import field_from_string
from .groupoid import (
    CurveParams,
    anchor,
    grade_scale,
    invert,
    rank_witness,
    star,
)
from .jsonio import (
    curve_from_json,
    curve_to_json,
    divisor_from_json,
    divisor_to_json,
    dumps,
    point_from_json,
    point_to_json,
    vector_to_json,
)
from .sampling import sample_pair_q, sample_point_fp, sample_point_q_on_template

USAGE_ERROR = 2
FAILURE = 1
DEGENERATE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hypadd", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, curve_required=True):
        p.add_argument("--curve", required=curve_required, help="curve JSON file")
        p.add_argument("--field", help="override the curve file's field (q or fp:P)")
        p.add_argument("--genus", type=int, help="genus when no curve file is given")

    p_add = sub.add_parser("add", help="add two points over a shared curve")
    common(p_add)
    p_add.add_argument("--a", required=True, help="first point JSON file")
    p_add.add_argument("--b", required=True, help="second point JSON file")
    p_add.add_argument(
        "--method",
        choices=["groupoid", "cantor", "both"],
        default="groupoid",
    )

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
    common(p_verify, curve_required=False)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--props",
        default="assoc,comm,inverse,anchor,rank,grading,oracle,pgg,closedform",
        help="comma-separated subset of the known properties",
    )
    return parser


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_curve(args) -> CurveParams:
    if args.curve is None:
        raise ValueError("this command needs --curve")
    obj = _read_json(args.curve)
    if args.field:
        obj = dict(obj)
        obj["field"] = args.field
    c = curve_from_json(obj)
    if args.genus is not None and args.genus != c.genus:
        raise ValueError(f"--genus {args.genus} contradicts curve genus {c.genus}")
    return c


def _load_point(path: str, c: CurveParams):
    return point_from_json(c.field, _read_json(path))


def _require_on_curve(a, c: CurveParams, label: str):
    if anchor(a) != (c.lambda1, c.lambda2):
        raise AnchorMismatch(f"point {label} does not sit over the given curve")


def _cmd_add(args) -> int:
    c = _load_curve(args)
    a = _load_point(args.a, c)
    b = _load_point(args.b, c)
    _require_on_curve(a, c, "--a")
    _require_on_curve(b, c, "--b")

    def by_cantor():
        d = cantor_add(to_mumford(a, c), to_mumford(b, c), c)
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
    from .cantor import divisor_valid

    for label, d in (("--a", d1), ("--b", d2)):
        if not divisor_valid(d, c):
            raise NotOnJacobian(f"divisor {label} fails u | v^2 - f")
    print(dumps(divisor_to_json(cantor_add(d1, d2, c))))
    return 0


class _Failure(Exception):
    """Property or assertion failure carrying a counterexample document."""

    def __init__(self, doc: dict):
        super().__init__(doc.get("error", "failure"))
        self.doc = doc


KNOWN_PROPS = (
    "assoc",
    "comm",
    "inverse",
    "anchor",
    "rank",
    "grading",
    "oracle",
    "pgg",
    "closedform",
)


def _trial_rng(seed: int, prop: str, trial: int) -> random.Random:
    return random.Random(f"{seed}:{prop}:{trial}")


def _sample_pair(field, genus, curve, rng):
    """Returns (curve, a, b) with shared anchors."""
    if field.modulus == 0:
        return sample_pair_q(genus, rng)
    c = curve
    if c is None:
        from .sampling import random_curve_fp

        c = random_curve_fp(field, genus, rng)
    return c, sample_point_fp(c, rng), sample_point_fp(c, rng)


def _third_point(c, a, b, field, rng):
    """A further point sharing the pair's anchor."""
    if field.modulus != 0:
        return sample_point_fp(c, rng)
    return star(a, invert(b))


def _run_prop(prop, field, genus, curve, trials, seed):
    passes = failures = skipped = 0
    examples = []
    if prop == "closedform" and genus not in (1, 2):
        return {"status": "skipped", "reason": "closed forms exist for genus 1 and 2 only"}
    for trial in range(trials):
        rng = _trial_rng(seed, prop, trial)
        try:
            c, a, b = _sample_pair(field, genus, curve, rng)
            ok = _check_prop(prop, c, a, b, field, rng)
        except (DegenerateConfiguration, NonGenericDivisor):
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
    }
    return report, examples


def _check_prop(prop, c, a, b, field, rng) -> bool:
    if prop == "assoc":
        d = _third_point(c, a, b, field, rng)
        return star(star(a, b), d) == star(a, star(b, d))
    if prop == "comm":
        return star(a, b) == star(b, a)
    if prop == "inverse":
        return star(star(a, b), invert(b)) == a
    if prop == "anchor":
        return anchor(star(a, b)) == anchor(a)
    if prop == "rank":
        return rank_witness(a, b, star(a, b))
    if prop == "grading":
        t = _nonzero_scale(field, rng)
        ga, gc = grade_scale(a, c, t)
        gb, _ = grade_scale(b, c, t)
        gs, _ = grade_scale(star(a, b), c, t)
        return star(ga, gb) == gs
    if prop == "oracle":
        want = star(a, b)
        got = from_mumford(cantor_add(to_mumford(a, c), to_mumford(b, c), c), c)
        return got == want
    if prop == "pgg":
        return identities.check_pgg_sum(a, b)
    if prop == "closedform":
        closed = closedform.g1_add if c.genus == 1 else closedform.g2_add
        return closed(a, b) == star(a, b)
    raise ValueError(f"unknown property {prop!r}")


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
    props = [p.strip() for p in args.props.split(",") if p.strip()]
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
        out = _run_prop(prop, field, genus, curve, args.trials, args.seed)
        if isinstance(out, dict):
            report["props"][prop] = out
            continue
        prop_report, examples = out
        report["props"][prop] = prop_report
        if not prop_report["pass"]:
            ok = False
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


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return HANDLERS[args.command](args)
    except _Failure as exc:
        print(dumps(exc.doc), file=sys.stderr)
        return FAILURE
    except InvariantViolation as exc:
        print(dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return FAILURE
    except DegenerateConfiguration as exc:
        print(
            dumps(
                {
                    "error": "DegenerateConfiguration",
                    "detail": str(exc),
                    "stage": exc.stage,
                    "fallback": "re-run with --method cantor",
                }
            ),
            file=sys.stderr,
        )
        return DEGENERATE
    except (AnchorMismatch, NotOnJacobian) as exc:
        print(dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return USAGE_ERROR
    except (HypaddError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())
