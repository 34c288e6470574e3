"""The CLI against its committed output corpus (tests/golden/manifest.json),
and the kernels, streams, laws and exchangeability suite against their
committed digests (tests/golden/digests.json).

An entry that moves on purpose is rewritten by
`PYTHONPATH=src python tests/golden/update_manifest.py`, which prints it; a
digest family by `PYTHONPATH=src python tests/golden/digests.py --pin` (and
again with `--full`).
"""
from __future__ import annotations

import pytest

from golden import digests
from golden.update_manifest import argvs, load, run

ENTRIES = load()


def test_manifest_holds_every_invocation():
    assert [e["argv"] for e in ENTRIES] == argvs()


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_output_matches_the_manifest(entry):
    assert run(entry["argv"]) == entry


def test_kernel_and_stream_digests_match_the_pins():
    # every family on the reduced grid, the laws' values, bounds and
    # refusals included; `digests.py --full` runs the whole one by hand
    assert digests.compute("reduced") == digests.load()["reduced"]
