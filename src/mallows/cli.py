"""Command-line surface: sample generation, pmf evaluation and verification.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Identical invocations (same arguments and seed) produce byte-identical
output; the seed defaults to the MALLOWS_SEED environment variable, then 0.
CSV output uses `,` separators, `.` decimals, and LF line endings; JSONL
output starts with a header line describing the run, written after the
first draw.  `sample` writes each window line with one `write`.  The lines
of a kernel block are formatted together, by one `repr` per distinct
value of the block, found without a sort (by a table indexed by offset
from the minimum) where the block spans at most as many values as it
holds, else by np.unique; a window of the scalar path (wider than
_KERNEL_WORD_MAX) by one `repr` of its row.  The argument parser is built
once per process, on the first `main` call, and serves every later call.
An argv that starts with a subcommand's name is parsed by that parser
alone; tokens it leaves get the top-level parser's `error`, in the bytes a
top-level parse prints.  Any other argv takes the top-level parse.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys
from typing import Iterable

import numpy as np

from . import __version__
from .dist import (
    FddQuery,
    displacement_pmf,
    fdd_probability,
    joint_rl_pmf,
)
from .errors import DomainError, MallowsError
from .qseries import EPS_SERIES, QParam
from .samplers import (
    _BLOCK_ROWS,
    batch_finite_words,
    batch_interlacing_windows,
    batch_inversion_windows,
    batch_shuffle_prefixes,
    q_shuffle_prefix,
    sample_finite_mallows,
    sample_two_sided_interlacing,
)
from .streams import GeomStream
from .verify import SUITE_NAMES, run_suite


def _default_seed() -> int:
    env = os.environ.get("MALLOWS_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise DomainError(f"MALLOWS_SEED must be an integer, got {env!r}") from exc


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError as exc:
        raise DomainError(f"window must look like LO:HI, got {text!r}") from exc
    if hi < lo:
        raise DomainError(f"window requires lo <= hi, got {text!r}")
    return lo, hi


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The one parser of the process, and its subcommands' by name.

    parse_args keeps no state between calls, and help reads the terminal
    width (COLUMNS) when it is printed, so one parser serves every call.
    """
    parser = argparse.ArgumentParser(
        prog="mallows",
        description="q-weighted random permutations: samplers, laws, checks.",
    )
    parser.add_argument("--version", action="version", version=f"mallows {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw permutation windows")
    sp.add_argument("--mode", choices=("finite", "one-sided", "two-sided"), required=True)
    sp.add_argument("--n", type=int, help="size (finite) / prefix length (one-sided)")
    sp.add_argument("--window", type=str, help="LO:HI window (two-sided)")
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--eps-tv", type=float, default=1e-9,
                    help="total-variation budget per window of the inversion sampler")
    sp.add_argument("--sampler", choices=("interlacing", "inversion"),
                    default="interlacing", help="two-sided construction")
    sp.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    pp = sub.add_parser("pmf", help="evaluate closed-form laws")
    pp.add_argument("law", choices=("displacement", "joint-rl", "fdd"))
    pp.add_argument("--q", type=float, required=True)
    pp.add_argument("--radius", type=int, default=10, help="displacement table radius")
    pp.add_argument("--r", type=int, default=0, help="joint-rl right count")
    pp.add_argument("--ell", type=int, default=0, help="joint-rl left count")
    pp.add_argument("--d", type=str, help="fdd displacements, comma-separated")

    vp = sub.add_parser("verify", help="run a statistical verification suite")
    vp.add_argument("--suite", required=True,
                    help=f"one of: {', '.join(SUITE_NAMES)}")
    vp.add_argument("--q", type=float, default=0.5)
    vp.add_argument("--seed", type=int, default=None)
    vp.add_argument("--sizes", type=str, default="",
                    help="one integer, the draws per case (default: the suite's; "
                         "exchangeability takes none); too few to test exits 2")
    return parser, {"sample": sp, "pmf": pp, "verify": vp}


# --------------------------------------------------------------------------
# sample
# --------------------------------------------------------------------------

#: longest word or interlacing window drawn by its kernel; longer ones come
#: from the scalar samplers, one call per window.  A finite or one-sided
#: kernel draws what the scalar calls draw and its arrays stay near 1 MB;
#: the interlacing kernel (2,048-row blocks) leads the scalar sampler x13
#: at 64 positions at q=0.5, x1.4 at 2,048, and loses to it from about 2,700
_KERNEL_WORD_MAX = 64


def _line_format(fmt: str, lo: int, hi: int) -> tuple[str, str, str]:
    """(head, sep, end) of a window line in format fmt: the line is head,
    the values joined by sep, then end."""
    if fmt == "jsonl":
        # json.dumps once; the repr of a list of ints is its JSON array
        return json.dumps({"lo": lo, "hi": hi, "values": []})[:-2], ", ", "]}\n"
    return "", ",", "\n"


def _line(vals: list, head: str, sep: str, end: str) -> str:
    """The line of one window, by one repr of its values (the scalar path)."""
    return head + repr(vals)[1:-1].replace(", ", sep) + end


def _block_lines(block: np.ndarray, head: str, sep: str, end: str) -> list[str]:
    """_line of each row of an int64 rows x width block, in row order.

    One repr per distinct value.  Where the block spans at most as many
    values as it holds (max - min + 1 <= block.size, in Python ints, so the
    int64 ends cannot wrap), a table indexed by offset from the minimum
    marks the values present and a running count ranks them, with no sort;
    only those values get strings, none the gaps of the span.  A wider
    block (a long one-sided word at q near 1 spreads over ~1e7 values)
    takes its distinct values from np.unique, a sort.  The cells (the head,
    then value + sep, and value + end in the last column) are gathered from
    the table, joined once and split into lines; no line holds a line break
    but its last.  A block of nearly all distinct values builds two strings
    per value and costs about three times the per-row rule.
    """
    rows, width = block.shape
    lo, hi = int(block.min()), int(block.max())
    if hi - lo < block.size:
        offset = block - lo
        seen = np.zeros(hi - lo + 1, dtype=bool)
        seen[offset] = True
        cell = np.cumsum(seen)[offset]  # 1 + the value's rank
        vals = np.flatnonzero(seen) + lo
    else:
        vals, inv = np.unique(block, return_inverse=True)
        cell = inv + 1
    reprs = list(map(repr, vals.tolist()))
    table = np.array([head, *(r + sep for r in reprs), *(r + end for r in reprs)], dtype=object)
    idx = np.zeros((rows, width + 1), dtype=np.intp)  # column 0 reads the head
    idx[:, 1:] = cell.reshape(rows, width)
    idx[:, -1] += len(reprs)  # the last value ends its line
    return "".join(table[idx].ravel().tolist()).splitlines(keepends=True)


def _cmd_sample(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    p = QParam(args.q)
    s = GeomStream(seed=seed, q=args.q)
    if args.count < 1:
        raise DomainError("count must be >= 1")

    uses_eps = args.mode == "two-sided" and args.sampler == "inversion"
    if args.mode == "finite" or args.mode == "one-sided":
        if args.n is None or args.n < 1:
            raise DomainError(f"{args.mode} mode requires --n >= 1")
        lo, hi = 1, args.n
    else:
        if args.window is None:
            raise DomainError("two-sided mode requires --window LO:HI")
        lo, hi = _parse_window(args.window)

    if args.format == "jsonl":
        header = json.dumps({
            "q": args.q,
            "seed": seed,
            "mode": args.mode,
            "window": [lo, hi],
            "eps_tv": args.eps_tv if uses_eps else None,
            "version": __version__,
        })
    else:
        header = ",".join(f"p{i}" for i in range(lo, hi + 1))
    fmt = _line_format(args.format, lo, hi)

    def lines(rows: int) -> Iterable[str]:
        """The lines of the next `rows` windows in draw order: one kernel
        call formatted as a block, or, for words and interlacing windows
        longer than _KERNEL_WORD_MAX, one scalar call per window, drawn and
        formatted as its line is read (so they are never all held)."""
        if uses_eps:
            return _block_lines(batch_inversion_windows(lo, hi, p, s, rows, args.eps_tv)[0], *fmt)
        if hi - lo + 1 <= _KERNEL_WORD_MAX:
            if args.mode == "two-sided":
                return _block_lines(batch_interlacing_windows(lo, hi, p, s, rows), *fmt)
            kernel = batch_finite_words if args.mode == "finite" else batch_shuffle_prefixes
            return _block_lines(kernel(args.n, p, s, rows), *fmt)
        if args.mode == "two-sided":
            return (_line(list(sample_two_sided_interlacing(lo, hi, p, s).values), *fmt)
                    for _ in range(rows))
        if args.mode == "finite":
            return (_line(list(sample_finite_mallows(args.n, p, s).values), *fmt)
                    for _ in range(rows))
        return (_line(list(q_shuffle_prefix(args.n, p, s)), *fmt) for _ in range(rows))

    texts = itertools.chain.from_iterable(
        lines(min(_BLOCK_ROWS, args.count - b0)) for b0 in range(0, args.count, _BLOCK_ROWS))
    first = next(texts)  # a refused draw raises before anything reaches stdout
    write = sys.stdout.write
    for text in itertools.chain((header + "\n", first), texts):
        write(text)
    return 0


# --------------------------------------------------------------------------
# pmf
# --------------------------------------------------------------------------

def _cmd_pmf(args: argparse.Namespace) -> int:
    """displacement writes CSV, joint-rl and fdd one JSON line each."""
    p = QParam(args.q)
    out = sys.stdout
    if args.law == "displacement":
        pmf = displacement_pmf(p, args.radius)
        out.write("d,probability\n")
        for d in range(-pmf.radius, pmf.radius + 1):
            out.write(f"{d},{pmf.prob(d)!r}\n")
        out.write(f"tail_bound,{pmf.tail_bound!r}\n")
        return 0
    if args.law == "joint-rl":
        value = joint_rl_pmf(p, args.r, args.ell)
        out.write(json.dumps({"r": args.r, "ell": args.ell, "value": value}) + "\n")
        return 0
    if args.d is None:
        raise DomainError("fdd requires --d, e.g. --d 0,0 or --d -1,1")
    try:
        d = tuple(int(x) for x in args.d.split(","))
    except ValueError as exc:
        raise DomainError(f"--d must be comma-separated integers, got {args.d!r}") from exc
    value, err = fdd_probability(p, FddQuery(k=len(d), d=d), EPS_SERIES)
    out.write(json.dumps({"query": list(d), "value": value, "error_bound": err}) + "\n")
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    p = QParam(args.q)
    try:
        sizes = (int(args.sizes),) if args.sizes else ()
    except ValueError as exc:
        raise DomainError(f"--sizes must be one integer, got {args.sizes!r}") from exc
    report = run_suite(args.suite, sizes, p, seed)
    out = sys.stdout
    for c in report.cases:
        verdict = "PASS" if c.passed else "FAIL"
        out.write(
            f"CASE {c.name} statistic={c.statistic!r} threshold={c.threshold!r} "
            f"samples={c.samples_used} {verdict}\n"
        )
    out.write(
        f"OVERALL {'PASS' if report.overall_pass else 'FAIL'} "
        f"suite={report.suite} q={report.q!r} seed={report.seed}\n"
    )
    return 0 if report.overall_pass else 1


#: a float; argparse takes "-0.5" for a number but "-1e-3" for an option
_FLOAT = re.compile(r"^-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-?(inf|infinity|nan)$", re.I)

#: flags whose values may start with a minus sign, and the value shapes
#: that mark them as data rather than stray options
_SIGNED_VALUE_FLAGS = {
    "--window": re.compile(r"^-?\d+:-?\d+$"),
    "--d": re.compile(r"^-?\d+(,-?\d+)*$"),
    "--q": _FLOAT,
    "--eps-tv": _FLOAT,
}


def _join_signed_flags(argv: list[str]) -> list[str]:
    """Turn ("--window", "-2:2") into ("--window=-2:2",), same for --d,
    --q and --eps-tv.

    argparse would otherwise read a negative value as an unknown option
    flag, so it would never reach its domain check.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        shape = _SIGNED_VALUE_FLAGS.get(tok)
        if shape is not None and i + 1 < len(argv) and shape.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_signed_flags(list(argv))
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:  # only the subcommand's parser reads what follows its name
            args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
        if args.command == "sample":
            return _cmd_sample(args)
        if args.command == "pmf":
            return _cmd_pmf(args)
        return _cmd_verify(args)
    except SystemExit as exc:  # argparse --help (0) or usage error (2)
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    except MallowsError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout (`| head`): 128 + SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # so the shutdown flush is silent
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
