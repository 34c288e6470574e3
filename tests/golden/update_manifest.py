"""The committed output corpus of the `mallows` CLI.

manifest.json beside this file holds one entry per invocation: the argv,
the exit code, the sha256 of stdout and the first line of stderr.
tests/test_golden.py runs every entry in-process and compares.

Rewrite the manifest, printing the entries whose record moved:

    PYTHONPATH=src python tests/golden/update_manifest.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from mallows.cli import main as cli_main

MANIFEST = Path(__file__).resolve().parent / "manifest.json"

#: the manifest's header
ABOUT = (
    "Records of `mallows` CLI invocations: argv, exit code, sha256 of stdout and the "
    "first line of stderr. `sample` prints integers from Philox streams; `pmf` and "
    "`verify` print float reprs, which a different libm can move. An entry moves only "
    "by a declared draw-order or format change, or by a defect. Rewrite with "
    "`PYTHONPATH=src python tests/golden/update_manifest.py`."
)

#: the seed of every sampling and verification entry
SEED = "7"

#: the two-sided samplers and the word modes, with a window or size each
SAMPLE_MODES = {
    "finite": ["--mode", "finite", "--n", "6"],
    "one-sided": ["--mode", "one-sided", "--n", "6"],
    "interlacing": ["--mode", "two-sided", "--window", "-5:5"],
    "inversion": ["--mode", "two-sided", "--window", "-5:5", "--sampler", "inversion"],
}

#: size or window at the longest kernel word (64) and one past it
KERNEL_EDGE = {
    "finite": lambda n: ["--mode", "finite", "--n", str(n)],
    "one-sided": lambda n: ["--mode", "one-sided", "--n", str(n)],
    "interlacing": lambda n: ["--mode", "two-sided", "--window", f"0:{n - 1}"],
    "inversion": lambda n: ["--mode", "two-sided", "--window", f"0:{n - 1}",
                            "--sampler", "inversion"],
}

#: windows of width 1 in every mode, and the modes' widths past the kernel
#: limit (drawn one scalar call per window)
FORMAT_EDGES = (
    *(args(1) for args in KERNEL_EDGE.values()),
    KERNEL_EDGE["finite"](65),
    KERNEL_EDGE["one-sided"](65),
    KERNEL_EDGE["interlacing"](65),
)

#: the verify suites that draw interlacing windows, run at a small size
WINDOW_SUITES = ("displacement", "stationarity", "inversion-invariance",
                 "truncation-convergence")

#: the other verify suites that draw, run at the same size; two-sampler and
#: lln exit 1 at it and are pinned as they are
OTHER_SUITES = ("finite-oracle", "two-sampler", "lln", "one-sided-left-counts")

#: two-sided kernel calls at their edges (window, sampler, q, eps_tv, count)
KERNEL_EDGES = (
    ["--window", "0:0", "--sampler", "inversion", "--q", "0.5", "--eps-tv", "1e-6",
     "--count", "5000"],
    ["--window", "0:2", "--q", "0.5", "--count", "5000"],
    ["--window", "-5:5", "--sampler", "inversion", "--q", "0.5", "--eps-tv", "0.5",
     "--count", "300"],
    ["--window", "-5:5", "--sampler", "inversion", "--q", "0.5", "--eps-tv", "10",
     "--count", "300"],
    ["--window", "-3:3", "--sampler", "inversion", "--q", "0.99", "--count", "300"],
    ["--window", "-3:3", "--sampler", "inversion", "--q", "0.02", "--count", "300"],
    ["--window", "-40:40", "--q", "0.8", "--count", "300"],
    ["--window", "0:63", "--sampler", "inversion", "--q", "0.8", "--count", "2049"],
    ["--window", "0:0", "--sampler", "inversion", "--q", "0.999", "--count", "100"],
)

#: inversion windows near both ends of int64, where every value's repr is
#: longest (19 digits, and a sign); the interlacing kernel is left out, as
#: its cost grows with the window's distance from 0
FAR_WINDOWS = ("4611686018427387900:4611686018427387904",
               "-4611686018427387904:-4611686018427387900")

REFUSALS = [
    ["sample", "--mode", "two-sided", "--window", "3", "--q", "0.5"],
    ["sample", "--mode", "two-sided", "--window", "a:b", "--q", "0.5"],
    ["sample", "--mode", "two-sided", "--window", "2:1", "--q", "0.5"],
    ["sample", "--mode", "two-sided", "--window", "-2:2", "--q", "0.5", "--count", "0"],
    ["sample", "--mode", "two-sided", "--q", "0.5"],
    ["sample", "--mode", "two-sided", "--window", "-2:2", "--q", "0.999"],
    ["sample", "--mode", "two-sided", "--window", "-2:2", "--q", "0.5",
     "--sampler", "inversion", "--eps-tv", "0"],
    ["sample", "--mode", "two-sided", "--window", "0:0", "--sampler", "inversion",
     "--q", "0.999999"],
    ["sample", "--mode", "finite", "--n", "0", "--q", "0.5"],
    ["sample", "--mode", "one-sided", "--n", "0", "--q", "0.5"],
    ["sample", "--mode", "finite", "--q", "0.5"],
    ["sample", "--mode", "two-sided", "--window", "-2:2", "--q", "-1e-3"],
    ["sample", "--mode", "two-sided", "--window", "-2:2", "--q", "0.5",
     "--sampler", "inversion", "--eps-tv", "-1e-9"],
    ["sample", "--mode", "two-sided", "--window", "9223372036854775800:9223372036854775806",
     "--sampler", "inversion", "--q", "0.5", "--count", "3", "--seed", "1"],
    ["sample", "--mode", "two-sided", "--window", "9223372036854775800:9223372036854775806",
     "--q", "0.5", "--count", "3", "--seed", "1"],
    ["sample", "--mode", "two-sided", "--window", "-9223372036854775808:-9223372036854775800",
     "--q", "0.5", "--count", "3", "--seed", "1"],
    ["pmf", "displacement", "--q", "0.5", "--radius", "-1"],
    ["pmf", "displacement", "--q", "0.997"],
    ["pmf", "displacement", "--q", "0.5", "--format", "json"],
    ["pmf", "fdd", "--q", "0.5", "--d", "1,x"],
    ["pmf", "fdd", "--q", "0.5"],
    ["pmf", "fdd", "--q", "1e-200", "--d", "0,1"],
    ["pmf", "fdd", "--q", "0.3", "--d", "700"],
    ["pmf", "fdd", "--q", "0.5", "--d", "0,1", "--tol", "-1e-9"],
    ["pmf", "joint-rl", "--q", "0.5", "--format", "csv"],
    ["pmf", "joint-rl", "--q", "0.999999"],
    ["verify", "--suite", "bogus", "--q", "0.5"],
    ["verify", "--suite", "displacement", "--q", "0.5", "--sizes", "abc"],
    ["verify", "--suite", "stationarity", "--q", "0.5", "--sizes", "5", "--seed", "0"],
]


def argvs() -> list[list[str]]:
    """Every invocation of the corpus, in manifest order."""
    out = []
    for args, q, count, fmt in itertools.product(
            SAMPLE_MODES.values(), ("0.3", "0.8"), ("1", "300", "2049"), ("jsonl", "csv")):
        out.append(["sample", *args, "--q", q, "--count", count, "--seed", SEED,
                    "--format", fmt])
    for args, n, count in itertools.product(
            KERNEL_EDGE.values(), (64, 65), ("1", "300")):
        out.append(["sample", *args(n), "--q", "0.8", "--count", count, "--seed", SEED,
                    "--format", "csv"])
    for q in ("0.3", "0.8"):
        out.append(["pmf", "displacement", "--q", q])
        out.append(["pmf", "joint-rl", "--q", q, "--r", "2", "--ell", "1"])
        out.append(["pmf", "fdd", "--q", q, "--d", "-1,0,2"])
    out.append(["verify", "--suite", "exchangeability", "--q", "0.5", "--seed", SEED])
    # the sorted series by gap tuple: an unsorted query with gaps (3, 2), a
    # spread one at small q, the radius-40 table and the swap check near q=1
    out.append(["pmf", "fdd", "--q", "0.985", "--d", "2,-3,3"])
    out.append(["pmf", "fdd", "--q", "0.05", "--d", "-3,0,3"])
    out.append(["pmf", "displacement", "--q", "0.985", "--radius", "40"])
    out.append(["verify", "--suite", "exchangeability", "--q", "0.985"])
    # exactly one block of rows, and a block past it at a q with long words
    for args in SAMPLE_MODES.values():
        out.append(["sample", *args, "--q", "0.8", "--count", "2048", "--seed", SEED,
                    "--format", "csv"])
    out.append(["sample", "--mode", "two-sided", "--window", "0:2", "--q", "0.95",
                "--count", "2049", "--seed", SEED, "--format", "csv"])
    for suite in WINDOW_SUITES:
        out.append(["verify", "--suite", suite, "--q", "0.5", "--sizes", "2000",
                    "--seed", SEED])
    for suite in OTHER_SUITES:
        out.append(["verify", "--suite", suite, "--q", "0.5", "--sizes", "2000",
                    "--seed", SEED])
    # a scalar word whose letters lie almost all above n
    out.append(["sample", "--mode", "one-sided", "--n", "65", "--q", "0.9999",
                "--count", "20", "--seed", SEED, "--format", "csv"])
    # the line formats at their edges: one-value windows, and scalar-path rows
    for args, fmt in itertools.product(FORMAT_EDGES, ("jsonl", "csv")):
        out.append(["sample", *args, "--q", "0.5", "--count", "3", "--seed", SEED,
                    "--format", fmt])
    # the kernels' edges: the pool shapes over several blocks, rows that draw
    # nothing beside rows that draw (x* = 1) and no round at all (x* = 0),
    # high and low q, the deep shape, the widest inversion window and the
    # inversion tail near q = 1
    for args in KERNEL_EDGES:
        out.append(["sample", "--mode", "two-sided", *args, "--seed", SEED,
                    "--format", "csv"])
    for window, count, fmt in itertools.product(FAR_WINDOWS, ("3", "2049"), ("jsonl", "csv")):
        out.append(["sample", "--mode", "two-sided", "--window", window, "--sampler",
                    "inversion", "--q", "0.5", "--count", count, "--seed", SEED,
                    "--format", fmt])
    return out + REFUSALS


def run(argv: list[str]) -> dict:
    """The manifest record of one in-process `mallows.cli.main(argv)` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return {
        "argv": list(argv),
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr_first_line": err.getvalue().partition("\n")[0],
    }


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text())["entries"] if MANIFEST.exists() else []


def main() -> int:
    old = {tuple(e["argv"]): e for e in load()}
    entries = [run(argv) for argv in argvs()]
    for e in entries:
        before = old.get(tuple(e["argv"]))
        if before != e:
            print(("new   " if before is None else "moved ") + " ".join(e["argv"]))
    for argv in old.keys() - {tuple(e["argv"]) for e in entries}:
        print("gone  " + " ".join(argv))
    lines = ",\n  ".join(json.dumps(e) for e in entries)  # one entry a line
    MANIFEST.write_text(f'{{"about": {json.dumps(ABOUT)},\n "entries": [\n  {lines}\n ]}}\n')
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
