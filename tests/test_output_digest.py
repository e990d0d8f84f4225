"""The output contract: every family of the output digest tool, pinned."""

import hashlib
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

# The eval family's digest: f(a) for the tool's seeded Polys and points
# over Q, F_7, F_10007 and F_(2^61 - 1).  Each value is fixed by the
# polynomial and the point alone, so no correct change moves it.
EVAL_DIGEST = "295beadada98bf86df54f2fd1601f5c8032ad60d9274105595dc5901016e7c67"

# Every family's digest.  The other four follow seeded draws, so a change
# that moves an output on purpose (a new draw order, a refusal that now
# answers) updates its pin and names the old and new digest in CHANGES.md.
DIGESTS = {
    "anchor": "49239067d55a29cf7c4a9c4c02bd74d3e8aed643d4bf97889035c9e8cecb5065",
    "eval": EVAL_DIGEST,
    "sample": "d68a6ab0b07798459213ac100850e5cda84bb123b6ba913994d0261761a26bd2",
    "star": "1b2c4ca2da8e7b3561e3b7c936f6c7cc7fdd6aa752fe753bf9a6a9f2e25c6f52",
    "verify": "7db606f50f20b608e4c58cd591d383c2e9dd8fefc10e950f5674de511b577d85",
}


def load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_digest_eval_family(capsys):
    """The eval family's digest, and its `--dump` lines, which hash to it."""
    tool = load_tool()
    tool.main(["--family", "eval"])
    assert json.loads(capsys.readouterr().out) == {"eval": EVAL_DIGEST}
    tool.main(["--dump", "eval"])
    dump = capsys.readouterr().out
    assert len(dump.splitlines()) == 800
    assert hashlib.sha256(dump.encode()).hexdigest() == EVAL_DIGEST


def test_output_digest_pins_every_family(capsys):
    """verify reports, star, R and the Cantor round trip, anchors and the
    closed forms, evaluation and sampling all print the pinned digests."""
    load_tool().main([])
    assert json.loads(capsys.readouterr().out) == DIGESTS
