"""One benchmark process for one workload; run.py starts it.

Modes:
  setup  import hypadd, build the inputs, warm up; print the seconds taken
  run    setup, then the untraced timed loop and the correctness gate
  trace  setup, then an untraced reference pass, a span pass and a count
         pass, then the correctness gate

The last stdout line is one JSON object for run.py to read; its metrics
are bare values, and run.py adds the units from BENCHMARK.json.  A wrong
result, a refusal share above MAX_FAIL_RATIO or an unexpected exception
ends the process with a non-zero code.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import SCALAR_ARITH, CountTracer, SpanTracer
from workloads import WORKLOADS, WrongResult

ROOT = Path(__file__).resolve().parent.parent
WARMUP_OPS = 2
# Every input runs at least this often, so its fastest run is a best-of-R.
MIN_PASSES = 3
CALIB_PERIOD_S = 0.25
# About 1% of pairs are refused; a share this high means a broken program.
MAX_FAIL_RATIO = 0.2

SELF_LAYERS = ("groupoid", "linalg", "poly", "cantor", "closedform", "expr", "identities", "sampling", "jsonio", "cli")

# metric prefix -> span keys; "calls" and/or "ms" say which per-op figures to report.
SPAN_METRICS = (
    ("linalg.matmul", ("linalg.Matrix.mul",), ("calls", "ms")),
    ("linalg.matvec", ("linalg.Matrix.vec",), ("calls", "ms")),
    ("linalg.mat_pow", ("linalg.mat_pow",), ("ms",)),
    ("linalg.companion", ("linalg.companion",), ("calls",)),
    ("linalg.det", ("linalg.det",), ("calls", "ms")),
    ("linalg.solve", ("linalg.solve",), ("calls", "ms")),
    ("groupoid.anchor", ("groupoid.anchor",), ("calls", "ms")),
    ("groupoid.kl_columns", ("groupoid.kl_columns",), ("ms",)),
    ("groupoid.build_r_determinant", ("groupoid.build_r_determinant",), ("ms",)),
    ("groupoid.phi_poly", ("groupoid.phi_poly",), ("ms",)),
    ("groupoid.star_detail", ("groupoid.star_detail",), ("ms",)),
    ("groupoid.viete_phi", ("groupoid.viete_phi",), ("ms",)),
    ("groupoid.rank_witness", ("groupoid.rank_witness",), ("ms",)),
    ("poly.mul", ("poly.Poly.__mul__", "poly.Poly.__rmul__"), ("calls", "ms")),
    ("poly.divmod", ("poly.Poly.__divmod__",), ("calls", "ms")),
    ("poly.xgcd", ("poly.xgcd",), ("ms",)),
    ("poly.eval", ("poly.Poly.__call__",), ("ms",)),
    ("cantor.cantor_add", ("cantor.cantor_add",), ("ms",)),
    ("cantor.to_mumford", ("cantor.to_mumford",), ("ms",)),
    ("cantor.from_mumford", ("cantor.from_mumford",), ("ms",)),
    ("closedform.g2_add", ("closedform.g2_add",), ("ms",)),
    ("expr.eval", ("expr.Expr.eval",), ("calls", "ms")),
    ("sampling.sample_point_fp", ("sampling.sample_point_fp",), ("calls", "ms")),
    ("identities.check_pgg_sum", ("identities.check_pgg_sum",), ("ms",)),
    ("jsonio.dumps", ("jsonio.dumps",), ("ms",)),
    ("cli.build_parser", ("cli.build_parser",), ("ms",)),
)

FIELD_COUNTS = (
    ("field.scalars_boxed_per_op", ("Scalar.__init__",)),
    ("field.arith_ops_per_op", tuple(f"Scalar.{n}" for n in SCALAR_ARITH)),
    ("field.inversions_per_op", ("Scalar.inverse",)),
    ("field.fieldspec_eq_per_op", ("FieldSpec.__eq__",)),
)


def calibrate():
    """A fixed pure-Python loop; its time tracks how busy the host is."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 10007
    return (time.perf_counter_ns() - start) / 1e6


class Loop:
    """Per-op latencies, each input's fastest run and outcome counts of one pass."""

    def __init__(self):
        self.lat_ns = []
        self.best_ns = {}
        self.answered = {}
        # (attempted, failed) of each input; a later run must repeat it.
        self.outcome = {}
        self.calib_ms = []

    def run(self, wl, seconds, min_ops, on_op=None):
        """Run ops until both limits are met, then to the end of the pool pass."""
        clock = time.perf_counter
        deadline = clock() + seconds
        next_calib = clock()
        i = 0
        while i < min_ops or clock() < deadline or i % wl.pool_size:
            if clock() >= next_calib:
                self.calib_ms.append(calibrate())
                next_calib = clock() + CALIB_PERIOD_S
            start = time.perf_counter_ns()
            attempted, failed, answered, result = wl.run_op(i)
            dur = time.perf_counter_ns() - start
            k = i % wl.pool_size
            wl.observe(k, result)
            self.lat_ns.append(dur)
            self.best_ns[k] = min(dur, self.best_ns.get(k, dur))
            self.answered[k] = answered
            if self.outcome.setdefault(k, (attempted, failed)) != (attempted, failed):
                raise WrongResult(f"{wl.name}: input {k} gave two different outcomes")
            i += 1
            if on_op is not None:
                on_op(i)
        return self

    @property
    def attempted(self):
        return sum(a for a, _ in self.outcome.values())

    @property
    def failed(self):
        return sum(f for _, f in self.outcome.values())

    def gate(self, wl):
        if self.failed > MAX_FAIL_RATIO * self.attempted:
            raise WrongResult(f"{wl.name}: {self.failed} of {self.attempted} refused")


def _median_ms(lat_ns):
    return statistics.median(lat_ns) / 1e6


def _check_source():
    import hypadd

    where = Path(hypadd.__file__).resolve()
    if ROOT / "src" / "hypadd" not in where.parents:
        raise RuntimeError(f"hypadd imported from {where}, not from this checkout's src/")


def setup(wl, seed):
    start = time.perf_counter()
    wl.setup(seed)
    for i in range(WARMUP_OPS):
        wl.run_op(i)
    elapsed = time.perf_counter() - start
    _check_source()
    return elapsed


def mode_run(wl, seconds):
    loop = Loop().run(wl, seconds, MIN_PASSES * wl.pool_size)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop.gate(wl)
    wl.check()
    best = list(loop.best_ns.values())
    p50_ns = statistics.median(best)
    answered_share = sum(loop.answered.values()) / len(best)
    return {
        "ops": len(loop.lat_ns),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "calib_ms_p50": statistics.median(loop.calib_ms),
        # Over every op, not bounded: it did not repeat across runs on a busy host.
        "op_ms_p90": statistics.quantiles(loop.lat_ns, n=10)[8] / 1e6,
        "metrics": {
            # From the median best time, not the summed time: a mean moved with every busy phase.
            "ops_per_s": answered_share / (p50_ns / 1e9),
            "op_ms_p50": p50_ns / 1e6,
            "peak_rss_mb": peak_rss_mb,
        },
    }


def mode_trace(wl, seconds):
    n = wl.pool_size
    ref = Loop().run(wl, 0, n)

    tracer = SpanTracer()
    window = {}

    def snapshot(i):
        if i == n:
            window.update(counts=tracer.snapshot_counts())

    span = Loop()
    tracer.install()
    try:
        span.run(wl, seconds, n, snapshot)
    finally:
        tracer.uninstall()

    counter = CountTracer()
    counter.install()
    try:
        for i in range(wl.count_ops):
            wl.run_op(i)
    finally:
        counter.uninstall()

    bits = wl.coeff_bits(n)
    span.gate(wl)
    wl.check()

    ops = len(span.lat_ns)
    counts = window["counts"]
    m = {}
    self_ns = tracer.self_ns_by_layer()
    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms_per_op"] = self_ns.get(layer, 0) / ops / 1e6
    for prefix, keys, kinds in SPAN_METRICS:
        if "calls" in kinds:
            m[f"{prefix}.calls_per_op"] = tracer.calls(counts, *keys) / n
        if "ms" in kinds:
            m[f"{prefix}.ms_per_op"] = tracer.incl_ns(*keys) / ops / 1e6
    for name, keys in FIELD_COUNTS:
        m[name] = counter.get(*keys) / wl.count_ops
    m["field.coeff_bits_max"] = bits
    for name, key in (("groupoid.star.useful_ratio", "groupoid.star"), ("cantor.generic_ratio", "cantor.from_mumford")):
        calls = tracer.calls(counts, key)
        m[name] = (calls - tracer.raised(counts, key)) / calls if calls else 0.0
    m["fail_ratio"] = span.failed / span.attempted
    m["trace.overhead_ratio"] = _median_ms(span.lat_ns[:n]) / _median_ms(ref.lat_ns)
    m["trace.covered_ratio"] = tracer.top_ns / sum(span.lat_ns)
    m["host.calib_ms_p50"] = statistics.median(ref.calib_ms + span.calib_ms)
    return {
        "ops": ops,
        "attempted": span.attempted,
        "failed": span.failed,
        "metrics": m,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    out = {"setup_s": setup(wl, args.seed)}
    if args.mode == "run":
        out.update(mode_run(wl, args.seconds))
    elif args.mode == "trace":
        out.update(mode_trace(wl, args.seconds))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
