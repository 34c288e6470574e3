"""The CLI against its committed output corpus (tests/golden/manifest.json).

An entry that moves on purpose is rewritten by
`PYTHONPATH=src python tests/golden/update_manifest.py`, which prints it.
"""
from __future__ import annotations

import pytest

from golden.update_manifest import argvs, load, run

ENTRIES = load()


def test_manifest_holds_every_invocation():
    assert [e["argv"] for e in ENTRIES] == argvs()


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_output_matches_the_manifest(entry):
    assert run(entry["argv"]) == entry
