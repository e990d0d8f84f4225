"""The output digest tool keeps running: its smallest family, pinned."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

# The eval family's digest: f(a) for the tool's seeded Polys and points
# over Q, F_7, F_10007 and F_(2^61 - 1).  Each value is fixed by the
# polynomial and the point alone, so no correct change moves it.
EVAL_DIGEST = "295beadada98bf86df54f2fd1601f5c8032ad60d9274105595dc5901016e7c67"


def test_output_digest_eval_family(capsys):
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.main(["--family", "eval"])
    assert json.loads(capsys.readouterr().out) == {"eval": EVAL_DIGEST}
