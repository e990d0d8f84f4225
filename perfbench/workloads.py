"""The three benchmark workloads.

Each workload is one closed loop: a single caller in one process issues
op i, waits for it, then issues op i+1.  Op i works on input i mod
pool_size, so every input of the seed-derived pool is run several times
and the timed loop can keep each input's fastest run.  hypadd is imported
lazily, inside setup, so that the import is part of the measured set-up
time; every call goes through a module attribute so that the tracer's
rebinding is seen.

run_op(i) is the timed op.  It returns (attempted, failed, answered,
result): for the two star workloads (1, 1, False, None) for a refusal and
(1, 0, True, result) otherwise; for cli-verify-g2 the verify report's
summed trials and summed skipped trials, and the op itself always
answers.  observe(k, result) runs outside the timing after every op on
input k, and check() runs once after the timed loop.
"""

import contextlib
import io
import json
import random

P = 10007


class WrongResult(Exception):
    """An output that disagrees with its oracle: the run is invalid."""


def _rng(name, seed):
    return random.Random(f"perfbench:{name}:{seed}")


class Workload:
    name = ""
    # Few inputs, so that each runs a few dozen times in a timed loop and
    # its best run is likely to fall in a quiet moment of a shared host.
    pool_size = 8
    # Ops of the traced run's count pass.
    count_ops = 6

    def observe(self, k, result):
        """Check one op's result outside the timing."""

    def check(self):
        """The gate that runs once, after the timed loop."""

    def coeff_bits(self, n):
        return 0


class FpStarG8(Workload):
    """star(a, b) with the default dual check, genus 8 over F_10007."""

    name = "fp-star-g8"
    # Enough pairs that a correct star stays far below the refusal ceiling.
    pool_size = 20

    def setup(self, seed):
        import hypadd
        from hypadd import sampling

        self.hypadd = hypadd
        field = hypadd.make_field("fp", P)
        rng = _rng(self.name, seed)
        self.pool = []
        for _ in range(self.pool_size):
            c = sampling.random_curve_fp(field, 8, rng)
            self.pool.append((c, sampling.sample_point_fp(c, rng), sampling.sample_point_fp(c, rng)))
        # First outcome per input (None for a refusal); later runs must repeat it.
        self.outcomes = {}

    def run_op(self, i):
        _, a, b = self.pool[i % self.pool_size]
        try:
            point = self.hypadd.star(a, b)
        except self.hypadd.DegenerateConfiguration:
            return 1, 1, False, None
        return 1, 0, True, point

    def observe(self, k, result):
        first = self.outcomes.setdefault(k, result)
        if first != result:
            raise WrongResult(f"{self.name}: pair {k} gave two different outcomes")

    def check(self):
        """Every answer against the Cantor round trip, after timing."""
        h = self.hypadd
        for k, got in self.outcomes.items():
            # A refusal is checked by the run's refusal ceiling, not here.
            if got is None:
                continue
            c, a, b = self.pool[k]
            try:
                want = h.from_mumford(h.cantor_add(h.to_mumford(a, c), h.to_mumford(b, c), c), c)
            except h.NonGenericDivisor:
                want = None
            if got != want:
                raise WrongResult(f"{self.name}: star disagrees with Cantor on pair {k}")


class QOracleG3(Workload):
    """star and the Cantor round trip on one pair, genus 3 over Q."""

    name = "q-oracle-g3"
    pool_size = 25
    count_ops = 32

    def setup(self, seed):
        import hypadd
        from hypadd import sampling

        self.hypadd = hypadd
        rng = _rng(self.name, seed)
        self.pool = [sampling.sample_pair_q(3, rng) for _ in range(self.pool_size)]

    def run_op(self, i):
        h = self.hypadd
        c, a, b = self.pool[i % self.pool_size]
        try:
            want = h.star(a, b)
        except h.DegenerateConfiguration:
            return 1, 1, False, None
        try:
            got = h.from_mumford(h.cantor_add(h.to_mumford(a, c), h.to_mumford(b, c), c), c)
        except h.NonGenericDivisor:
            # Stricter than counting it: star answered, so the sum must be generic.
            raise WrongResult(f"{self.name}: star answered a pair whose sum is not generic") from None
        if got != want:
            raise WrongResult(f"{self.name}: star disagrees with Cantor on pair {i % self.pool_size}")
        return 1, 0, True, None

    def coeff_bits(self, n):
        """Largest numerator or denominator bit length over R and the output."""
        h = self.hypadd
        bits = 0
        for i in range(n):
            _, a, b = self.pool[i % self.pool_size]
            try:
                res = h.star_detail(a, b)
            except h.DegenerateConfiguration:
                continue
            p = res.point
            for s in list(res.r.h.values()) + list(p.p_even) + list(p.p_odd):
                bits = max(bits, s.value.numerator.bit_length(), s.value.denominator.bit_length())
        return bits


class CliVerifyG2(Workload):
    """One in-process `hypadd verify` at genus 2 over F_10007."""

    name = "cli-verify-g2"

    def setup(self, seed):
        import hypadd.cli

        self.hypadd = hypadd
        # verify samples its own points, so the inputs are its seeds.
        self.base = _rng(self.name, seed).randrange(10**9) * 10**6

    def run_op(self, i):
        out, err = io.StringIO(), io.StringIO()
        seed = str(self.base + i % self.pool_size)
        argv = ["verify", "--field", "fp:10007", "--genus", "2", "--trials", "2", "--seed", seed]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.hypadd.cli.run(argv)
        if rc != 0:
            raise WrongResult(f"{self.name}: verify exited {rc}: {err.getvalue()[:500]}")
        report = json.loads(out.getvalue())
        if report.get("ok") is not True:
            raise WrongResult(f"{self.name}: verify reported ok={report.get('ok')!r}")
        props = [p for p in report["props"].values() if "trials" in p]
        return sum(p["trials"] for p in props), sum(p["skipped"] for p in props), True, None


WORKLOADS = {w.name: w for w in (FpStarG8, QOracleG3, CliVerifyG2)}
