"""Replay the golden corpus of CLI reports (tests/golden/corpus.json).

The corpus is written by tests/golden/generate.py; a failure names the first
case whose exit code or float-free report differs from the stored one.
"""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden")
_spec = importlib.util.spec_from_file_location("generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


def test_golden_corpus_replays_unchanged():
    cases = json.loads(generate.CORPUS.read_text())
    assert len(cases) > 100
    for i, want in enumerate(cases):
        got = generate.run_case(want["argv"])
        assert got == want, f"corpus case {i} differs: eulerdist {want['argv']}"
