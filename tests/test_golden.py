"""Replay the golden corpus of CLI calls (tests/golden/calls.jsonl).

A change that means to alter CLI output regenerates the corpus with
`PYTHONPATH=src python tests/golden/regen.py` in the same change.
"""
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).with_name("golden") / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

CORPUS = [json.loads(line) for line in regen.CORPUS.read_text().splitlines()]


def test_corpus_lists_every_call():
    assert [e["argv"] for e in CORPUS] == regen.calls()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    regen.write_files(root)
    return root


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: " ".join(e["argv"]))
def test_call_matches_corpus(inputs, entry):
    assert regen.run(entry["argv"], inputs) == entry
