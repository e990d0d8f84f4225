"""Digests of the library's outputs on fixed seeded inputs.

Run from a checkout, with nothing installed:

    python3 tools/output_digest.py [--family verify|star|eval|anchor|sample]...
    python3 tools/output_digest.py --dump FAMILY

It prints one JSON line that maps each family to the sha256 of its
outputs, in a fixed order.  Run it at two commits and compare the lines:
equal digests mean equal outputs on every input below.  `--dump` prints
one family's outputs unhashed instead, one JSON line per input, whose
sha256 is the family's digest: diff two commits' dumps to find the
inputs whose outputs moved.  The families:

  verify  `hypadd verify` stdout and exit code for the eight seeds of
          the cli-verify-g2 benchmark pool at bench seeds 0-2 (genus 2
          over F_10007, --trials 2), and for F_13, F_101 and Q at genus
          1-3 (--trials 10 --seed 0);
  star    the outcome of `star`, of `star_detail`'s R and of the Cantor
          round trip on seeded pairs over F_5, F_101, F_10007,
          F_(2^61-1) and Q at genus 1-4 and 8;
  eval    `Poly` evaluation on seeded polynomials and points over Q,
          F_7, F_10007 and F_(2^61-1);
  anchor  `anchor` of both points and the `g1_add` or `g2_add` outcome
          on the star family's genus-1 and genus-2 pairs;
  sample  `sample_point_fp` on seeded curves over F_5, F_101, F_10007 and
          F_(2^61-1) at genus 1-3 and 8, `sample_pair_q` and
          `sample_point_q_on_template` at genus 1-4, and `fit_curve_through`
          and `viete_phi` on seeded points with Fraction abscissas over Q,
          F_101 and F_10007 at genus 1-3.

An outcome is the value's text, or the exception's type and `stage`.
The tool uses only public names and takes well under a minute.
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hypadd  # noqa: E402
from hypadd import cli, groupoid, sampling  # noqa: E402
from hypadd.jsonio import curve_to_json, point_to_json  # noqa: E402

F61 = 2**61 - 1


def _verify_runs():
    """(argv, exit code, stdout) for each verify run of the family."""
    runs = []
    for bench_seed in range(3):
        # the seeds of perfbench's cli-verify-g2 pool: base + k for k < 8
        base = random.Random(f"perfbench:cli-verify-g2:{bench_seed}").randrange(10**9) * 10**6
        for k in range(8):
            seed = str(base + k)
            runs.append(["--field", "fp:10007", "--genus", "2", "--trials", "2", "--seed", seed])
    for field in ("fp:13", "fp:101", "q"):
        for genus in (1, 2, 3):
            runs.append(["--field", field, "--genus", str(genus), "--trials", "10", "--seed", "0"])
    for argv in runs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(["verify", *argv])
        yield [argv, code, out.getvalue()]


def _outcome(compute):
    """The text of compute()'s value, or its exception's type and stage."""
    try:
        return ["value", compute()]
    except (hypadd.HypaddError, ValueError) as exc:
        return ["raised", type(exc).__name__, getattr(exc, "stage", None)]


def _star_pool(genera):
    """(field, genus, curve, sampling outcome of a pair) for the star
    family's seeded pools of each genus given."""
    fields = [hypadd.make_field("fp", p) for p in (5, 101, 10007, F61)] + [hypadd.make_field("q")]
    for field in fields:
        for genus in genera:
            rng = random.Random(f"output-digest:star:{field.to_string()}:{genus}")
            for _ in range(10 if genus == 8 else 30):
                if field.modulus:
                    c = sampling.random_curve_fp(field, genus, rng)
                    pair = _outcome(lambda: [sampling.sample_point_fp(c, rng) for _ in "ab"])
                else:
                    c, *pair = sampling.sample_pair_q(genus, rng)
                    pair = ["value", tuple(pair)]
                yield field, genus, c, pair


def _star_runs():
    """Per pair: the sampling outcome, then star, star_detail's R and Cantor."""
    for field, genus, c, pair in _star_pool((1, 2, 3, 4, 8)):
        if pair[0] != "value":
            yield [field.to_string(), genus, pair]
            continue
        a, b = pair[1]

        def r_text():
            r = hypadd.star_detail(a, b).r
            return [repr(r.r1), repr(r.r2), repr(r.r3)]

        def cantor():
            d = hypadd.cantor_add(hypadd.to_mumford(a, c), hypadd.to_mumford(b, c), c)
            return point_to_json(hypadd.from_mumford(d, c))

        yield [
            field.to_string(),
            genus,
            [point_to_json(a), point_to_json(b)],
            _outcome(lambda: point_to_json(hypadd.star(a, b))),
            _outcome(r_text),
            _outcome(cantor),
        ]


def _anchor_runs():
    """Per genus-1 and genus-2 pair of the star pools: both anchors and
    the closed form's outcome."""
    for field, genus, _, pair in _star_pool((1, 2)):
        if pair[0] != "value":
            continue
        a, b = pair[1]
        add = hypadd.g1_add if genus == 1 else hypadd.g2_add
        anchors = [[[s.to_string() for s in half] for half in hypadd.anchor(x)] for x in (a, b)]
        yield [field.to_string(), genus, anchors, _outcome(lambda: point_to_json(add(a, b)))]


def _eval_runs():
    """(f, a, f(a)) as text on seeded draws, zero and constant f included."""
    for modulus in (0, 7, 10007, F61):
        field = hypadd.make_field("q") if modulus == 0 else hypadd.make_field("fp", modulus)
        rng = random.Random(f"output-digest:eval:{modulus}")
        for k in range(200):
            n = k % 9  # lengths 0-8: the zero polynomial and constants too
            if modulus:
                coeffs, at = [rng.randrange(modulus) for _ in range(n)], rng.randrange(modulus)
            else:
                coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(n)]
                at = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            f, a = hypadd.Poly(field, coeffs), field.scalar(at)
            yield [repr(f), a.to_string(), f(a).to_string()]


def _sample_runs():
    """Each sampled, fitted or interpolated curve and point as JSON, or
    the outcome's exception."""
    for p in (5, 101, 10007, F61):
        field = hypadd.make_field("fp", p)
        for genus in (1, 2, 3, 8):
            rng = random.Random(f"output-digest:sample:{p}:{genus}")
            for _ in range(10):
                c = sampling.random_curve_fp(field, genus, rng)
                point = _outcome(lambda: point_to_json(sampling.sample_point_fp(c, rng)))
                yield [p, genus, curve_to_json(c), point]
    for genus in (1, 2, 3, 4):
        rng = random.Random(f"output-digest:sample:q:{genus}")
        for _ in range(10):
            c, a, b = sampling.sample_pair_q(genus, rng)
            fitted, point = sampling.sample_point_q_on_template(c, rng)
            yield [genus, *map(curve_to_json, (c, fitted)), *map(point_to_json, (a, b, point))]
    for modulus in (0, 101, 10007):
        field = hypadd.make_field("q") if modulus == 0 else hypadd.make_field("fp", modulus)
        for genus in (1, 2, 3):
            rng = random.Random(f"output-digest:fit:{field.to_string()}:{genus}")
            for _ in range(10):
                xs = [Fraction(n, rng.randint(1, 3)) for n in rng.sample(range(-40, 41), 2 * genus)]
                ys = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in xs]
                pairs = [(field.scalar(x), field.scalar(y)) for x, y in zip(xs, ys)]

                def fit_and_phi():
                    c = sampling.fit_curve_through(field, genus, pairs)
                    point = groupoid.viete_phi(groupoid.PointListRep(pairs[:genus], c.lambda2))
                    return [curve_to_json(c), point_to_json(point)]

                yield [field.to_string(), genus, _outcome(fit_and_phi)]


FAMILIES = {
    "verify": _verify_runs,
    "star": _star_runs,
    "eval": _eval_runs,
    "anchor": _anchor_runs,
    "sample": _sample_runs,
}


def lines(family: str):
    """A family's outputs, one JSON line per output."""
    for item in FAMILIES[family]():
        yield json.dumps(item, sort_keys=True) + "\n"


def digest(family: str) -> str:
    """The sha256 of a family's lines."""
    h = hashlib.sha256()
    for line in lines(family):
        h.update(line.encode())
    return h.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    choice = parser.add_mutually_exclusive_group()
    choice.add_argument("--family", action="append", choices=sorted(FAMILIES), help="default: all")
    choice.add_argument("--dump", choices=sorted(FAMILIES), help="print one family's lines unhashed")
    args = parser.parse_args(argv)
    if args.dump:
        sys.stdout.writelines(lines(args.dump))
        return
    families = args.family or list(FAMILIES)
    print(json.dumps({name: digest(name) for name in dict.fromkeys(families)}, sort_keys=True))


if __name__ == "__main__":
    main()
