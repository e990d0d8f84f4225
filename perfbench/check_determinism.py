"""Check that two traced runs with the same seed give identical counts.

  python3 perfbench/check_determinism.py --seed 3 --seconds 2

For each workload, runs `run.py --trace 1` twice and compares every
count-like per-layer metric: the *calls_per_op figures, the field.*
counts, the refusal ratios, fail_ratio and field.coeff_bits_max, plus
attempted and failed.  Timings are not compared.  Exits 1 on any
difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def is_count(name):
    return (
        name.endswith("calls_per_op")
        or name.startswith("field.")
        or name in ("fail_ratio", "groupoid.star.useful_ratio", "cantor.generic_ratio")
    )


def traced(name, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if is_count(k)}
    counts["attempted"] = result["attempted"]
    counts["failed"] = result["failed"]
    return counts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args(argv)
    ok = True
    for name in WORKLOADS:
        first, second = traced(name, args.seed, args.seconds), traced(name, args.seed, args.seconds)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        print(f"{name}: {len(first)} counts compared, {len(diff)} differ {diff}")
        ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
