"""Benchmark for hypadd: end-to-end metrics, or a per-layer trace.

Run from the root of a checkout:

  python3 perfbench/run.py --workload fp-star-g8 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in worker processes of its own (worker.py), against
the hypadd sources under src/ of this checkout.  With --trace 0 the
command reports the end_to_end metrics of BENCHMARK.json, with --trace 1
its per_layer metrics from a separate traced run; the names and units
are taken from that file.  SCHEMA.md describes every metric.  The last
stdout line is one JSON object; any wrong result ends the command with a
non-zero code and no metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup_s is the median of these fresh processes plus the measuring one.
# Half run before the measuring process and half after, so that a short busy
# moment of the host does not slow all of them.
SETUP_PROBES = 10
BUDGET_S = 170


class BenchError(Exception):
    pass


def _worker(mode, name, args, deadline):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode",
        mode,
        "--workload",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: {mode} worker ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name}: {mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{name}: {mode} worker printed no result")
    return json.loads(lines[-1])


def load_units(trace):
    """Metric name -> unit, for the end_to_end or the per_layer list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, args, units):
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        out = _worker("trace", name, args, deadline)
        values = out["metrics"]
    else:
        def probe():
            return _worker("setup", name, args, deadline)["setup_s"]

        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        out = _worker("run", name, args, deadline)
        setups += [out["setup_s"]] + [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        values = dict(out["metrics"], setup_s=statistics.median(setups))
    if values.keys() != units.keys():
        extra, missing = sorted(values.keys() - units.keys()), sorted(units.keys() - values.keys())
        raise BenchError(f"{name}: metrics differ from BENCHMARK.json: extra {extra}, missing {missing}")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    result = {"correct": True, "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
    return result, out


def summary(name, args, result, out):
    ratio = result["failed"] / result["attempted"]
    lines = [
        f"{name} seed={args.seed} trace={args.trace} ops={out['ops']} "
        f"fail_ratio={ratio:.6g} ({result['failed']}/{result['attempted']})"
    ]
    if not args.trace:
        lines[0] += f" op_ms_p90={out['op_ms_p90']:.6g} ms host.calib_ms_p50={out['calib_ms_p50']:.6g} ms"
    for k, m in result["metrics"].items():
        lines.append(f"  {k} = {m['value']:.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hypadd" / "__init__.py").is_file():
        print(f"no hypadd sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    units = load_units(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, out = run_workload(name, args, units)
            print(summary(name, args, result, out), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
