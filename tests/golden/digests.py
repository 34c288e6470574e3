"""Bit-identity digests of the sampling kernels, the stream's draws and
the closed-form laws.

Each kernel and stream family runs its routines over a fixed grid, every
call on a fresh stream of seed SEED, and hashes into one sha256 every array
the calls return (its dtype, shape and bytes), then where each call left
its stream: the stream's ``counter`` and its next PEEK uniforms.  The
uniforms pin the generator's own position, so a call that moves it
without counting (a ``skip`` a word short, say) moves its family too:

* ``kernels.inversion``: batch_inversion_windows over q x windows x counts
  x eps_tv, and batch_inversion_position0 (the full grid adds one call
  near q = 1, DEEP_TAIL);
* ``kernels.interlacing``: batch_interlacing_windows over q x windows x
  counts (the reduced grid adds the two shapes of the ``deep`` benchmark,
  DEEP_SHAPES), and at count 1 the scalar sample_two_sided_interlacing and
  sample_young_euler;
* ``kernels.words``: batch_finite_r, batch_finite_words and
  batch_shuffle_prefixes over q x n x counts, their scalar twins, and
  perm._leftward_chains on skips from small to past 2^31;
* ``streams.draws``: every GeomStream draw method, spawned substreams
  included: ``geometrics`` at the stream's ratio, ``truncated_geometrics``
  with an integer array of limits, and the part searches' draws at other
  ratios, scalar and one per draw, through ``_geometrics_of_logs``.

The laws families evaluate, on a fresh QParam per q of LAWS_GRID, the fdd
boxes (k=3 and k <= 2) and the k=4 and k=5 queries of FDD_K45,
``displacement_pmf`` and a small grid of
``joint_rl_pmf``, ``conditional_l_given_r`` and ``block_p2``, and hash each
call's label with the repr of its floats (exact to the last bit):

* ``laws.values``: every value returned;
* ``laws.bounds``: every error and tail bound returned (fdd and
  ``displacement_pmf``), apart from the values, so a change of rounding
  terms moves this family alone;
* ``laws.refusals``: every refused call as its exception type and message;
* ``suites.exchangeability``: the exchangeability suite's report at each
  q, or its refusal as type and message.

digests.json beside this file pins two grids: "reduced", which
tests/test_golden.py recomputes (well under a second), and "full", which
runs by hand.  Print each family's digest against its pin (exit 1 if one
moved):

    PYTHONPATH=src python tests/golden/digests.py [--full]

A family moves only by a declared change of draws, which re-pins it in
the same commit with ``--pin`` and names it in CHANGES.md.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

from mallows import dist, perm, samplers, verify
from mallows.errors import MallowsError
from mallows.qseries import QParam
from mallows.streams import GeomStream, _geometrics_of_logs

PINS = Path(__file__).resolve().parent / "digests.json"

SEED = 7

#: per grid: (q values, windows, counts, eps_tv values) of the two-sided
#: kernels; the interlacing kernel takes the same grid without eps_tv
KERNEL_GRID = {
    "full": (
        (0.05, 0.3, 0.5, 0.8, 0.95, 0.99),
        ((0, 0), (0, 2), (-5, 5), (-40, 40), (3, 70), (-64, -1)),
        (0, 1, 7, 300, 2049),
        (1e-3, 1e-9, 0.5, 10.0),
    ),
    "reduced": (
        (0.3, 0.5, 0.95),
        ((0, 0), (-5, 5), (3, 70)),
        (1, 7, 2049),
        (1e-9, 0.5),
    ),
}

#: a full-grid inversion call (lo, hi, q, count, eps_tv) whose rows take
#: more than 2^15 tail hits each
DEEP_TAIL = (0, 1, 0.99997, 3, 10.0)

#: interlacing calls (lo, hi, q, count) of the reduced grid only: the two
#: shapes of the ``deep`` benchmark, a wide window of deep diagrams and a
#: narrow one near q = 1
DEEP_SHAPES = ((-40, 40, 0.8, 300), (0, 2, 0.95, 300))

#: per grid: (q values, word lengths, counts) of the word kernels
WORD_GRID = {
    "full": ((0.05, 0.3, 0.5, 0.8, 0.95, 0.99, 0.9999),
             (1, 2, 7, 40, 64, 65), (0, 1, 7, 300)),
    "reduced": ((0.3, 0.9999), (1, 7, 65), (1, 300)),
}

#: per grid: the q values of the stream draws
STREAM_GRID = {
    "full": (1e-12, 0.05, 0.3, 0.5, 0.8, 0.95, 0.99, 0.999999),
    "reduced": (0.05, 0.5, 0.999999),
}

#: largest entries around the 32-bit edge (2^31 - width - 1, 2^31 - width
#: and one past it, whose chains reach 2^31, for width-8 rows), then past
#: 2^31 and near the one-sided skips at q -> 1
CHAIN_EDGES = (2**31 - 9, 2**31 - 8, 2**31 - 7, 2**31, 4 * 10**12)

#: uniforms drawn and hashed after each call (_where)
PEEK = 3


#: per grid: (q values, radius of the k=3 fdd box, radius of the k <= 2
#: boxes, displacement_pmf radius, largest entry of the joint_rl_pmf,
#: conditional_l_given_r and block_p2 grids).  0.985 makes the radius-40
#: tail bound vacuous and 0.996 still evaluates every fdd event; 0.997
#: refuses the possible ones by an underflowing denominator, and 0.999
#: because <inf>_q is 0.0.  The reduced k=3 box is the ``laws`` benchmark's.
LAWS_GRID = {
    "full": ((0.02, 0.3, 0.5, 0.8, 0.95, 0.985, 0.996, 0.997, 0.999), 4, 6, 40, 5),
    "reduced": ((0.3, 0.985, 0.996, 0.997, 0.999), 3, 4, 40, 2),
}

#: k=4 and k=5 fdd queries asked at every q of both grids: two sorted ones,
#: a permutation of each one's implied values, (-20, -7, 7, 20), refused by
#: an underflowing denominator at 0.996, and (700, 700, 700, 700), refused
#: below the normal doubles at q <= 0.5 but evaluated at 0.997
FDD_K45 = ((-2, -1, 0, 2), (5, 1, -2, -5), (-1, 0, 0, 1, 3), (2, 6, -3, 1, -3),
           (-20, -7, 7, 20), (700, 700, 700, 700))


def _where(s: GeomStream) -> tuple:
    """Where the calls before left s: its counter and its next PEEK
    uniforms (drawn here)."""
    return s.counter, s.uniforms(PEEK)


def _feed(h, *items) -> None:
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(f"{item.dtype.str}{item.shape}".encode())
            h.update(np.ascontiguousarray(item).tobytes())
        else:
            h.update(repr(item).encode())


def _inversion(grid: str) -> str:
    h = hashlib.sha256()
    qs, windows, counts, epss = KERNEL_GRID[grid]
    for q in qs:
        p = QParam(q)
        for (lo, hi), count, eps_tv in ((w, c, e) for w in windows for c in counts for e in epss):
            s = GeomStream(SEED, q)
            _feed(h, *samplers.batch_inversion_windows(lo, hi, p, s, count, eps_tv), *_where(s))
        for count, eps_tv in ((c, e) for c in counts for e in epss):
            s = GeomStream(SEED, q)
            _feed(h, *samplers.batch_inversion_position0(p, s, count, eps_tv), *_where(s))
    if grid == "full":
        lo, hi, q, count, eps_tv = DEEP_TAIL
        s = GeomStream(SEED, q)
        windows = samplers.batch_inversion_windows(lo, hi, QParam(q), s, count, eps_tv)
        _feed(h, *windows, *_where(s))
    return h.hexdigest()


def _interlacing(grid: str) -> str:
    h = hashlib.sha256()
    qs, windows, counts, _ = KERNEL_GRID[grid]
    for q in qs:
        p = QParam(q)
        for (lo, hi), count in ((w, c) for w in windows for c in counts):
            s = GeomStream(SEED, q)
            _feed(h, samplers.batch_interlacing_windows(lo, hi, p, s, count), *_where(s))
        for lo, hi in windows:
            s = GeomStream(SEED, q)
            _feed(h, samplers.sample_two_sided_interlacing(lo, hi, p, s).values, *_where(s))
        s = GeomStream(SEED, q)
        _feed(h, samplers.sample_young_euler(p, s).parts, *_where(s))
    if grid == "reduced":
        for lo, hi, q, count in DEEP_SHAPES:
            s = GeomStream(SEED, q)
            _feed(h, samplers.batch_interlacing_windows(lo, hi, QParam(q), s, count), *_where(s))
    return h.hexdigest()


def _words(grid: str) -> str:
    h = hashlib.sha256()
    qs, ns, counts = WORD_GRID[grid]
    for q in qs:
        p = QParam(q)
        for n, count in ((n, c) for n in ns for c in counts):
            for kernel in (samplers.batch_finite_r, samplers.batch_finite_words,
                           samplers.batch_shuffle_prefixes):
                s = GeomStream(SEED, q)
                _feed(h, kernel(n, p, s, count), *_where(s))
        for n in ns:
            s = GeomStream(SEED, q)
            _feed(h, samplers.sample_finite_mallows(n, p, s).values, *_where(s))
            _feed(h, samplers.q_shuffle_prefix(n, p, s), *_where(s))
    rng = np.random.default_rng(SEED)
    for q in qs:
        for width in (1, 2, 8, 65):
            _feed(h, perm._leftward_chains(rng.geometric(1.0 - q, size=(50, width)) - 1))
    for top in CHAIN_EDGES:
        skips = rng.integers(0, 40, size=(30, 8))
        skips[np.arange(30), rng.integers(0, 8, size=30)] = top - rng.integers(0, 3, size=30)
        skips[0] = top  # every entry of one row at the largest value
        _feed(h, perm._leftward_chains(skips))
    return h.hexdigest()


def _streams(grid: str) -> str:
    h = hashlib.sha256()
    for q in STREAM_GRID[grid]:
        s = GeomStream(SEED, q)
        ratios = np.linspace(1e-9, 1.0 - 1e-9, 97)
        limits = np.arange(1, 98)
        _feed(h, s.uniform(), s.uniforms(0), s.uniforms(1000), s.geometrics(1000),
              _geometrics_of_logs(np.log(s.uniforms(97)), math.log(0.25)),
              _geometrics_of_logs(np.log(s.uniforms(97)), np.log(ratios)),
              s.truncated_geometrics(np.full(97, 5)),
              s.truncated_geometrics(limits), *_where(s))
        child = s.spawn("child").spawn(3)
        _feed(h, child.uniforms(100), child.geometrics(100), *_where(child), *_where(s))
    return h.hexdigest()


def _law_calls(grid: str):
    """(label, call) for every law evaluation of the grid; a call returns
    (values, bounds), each a tuple of floats, and binds its own arguments,
    so the calls may run in any order."""
    qs, r3, r2, radius, top = LAWS_GRID[grid]
    for q in qs:
        p = QParam(q)
        boxes = [itertools.product(range(-r2, r2 + 1), repeat=k) for k in (1, 2)]
        boxes.append(itertools.product(range(-r3, r3 + 1), repeat=3))
        boxes.append(FDD_K45)
        for d in itertools.chain(*boxes):
            def fdd(p=p, d=d):
                value, bound = dist.fdd_probability(p, dist.FddQuery(len(d), d), 1e-12)
                return (value,), (bound,)
            yield ("fdd", q, d), fdd

        def pmf(p=p):
            law = dist.displacement_pmf(p, radius)
            return tuple(law.probs[d] for d in range(-radius, radius + 1)), (law.tail_bound,)
        yield ("displacement_pmf", q, radius), pmf
        pairs = list(itertools.product(range(top + 1), repeat=2))
        for fn in (dist.joint_rl_pmf, dist.conditional_l_given_r):
            for r, ell in pairs:
                yield (fn.__name__, q, r, ell), lambda p=p, fn=fn, r=r, ell=ell: ((fn(p, r, ell),), ())
        for b, a in itertools.product(pairs, repeat=2):
            yield ("block_p2", q, b, a), lambda p=p, b=b, a=a: ((dist.block_p2(p, b, a),), ())


def _laws(grid: str) -> dict[str, str]:
    values, bounds, refusals = (hashlib.sha256() for _ in range(3))
    for label, call in _law_calls(grid):
        try:
            vals, bnds = call()
        except MallowsError as e:
            _feed(refusals, label, type(e).__name__, str(e))
            continue
        _feed(values, label, vals)
        if bnds:
            _feed(bounds, label, bnds)
    return {"laws.values": values.hexdigest(), "laws.bounds": bounds.hexdigest(),
            "laws.refusals": refusals.hexdigest()}


def _exchangeability(grid: str) -> str:
    h = hashlib.sha256()
    for q in LAWS_GRID[grid][0]:
        try:
            _feed(h, q, verify.run_suite("exchangeability", (), QParam(q), 0).to_json())
        except MallowsError as e:
            _feed(h, q, type(e).__name__, str(e))
    return h.hexdigest()


FAMILIES = {
    "kernels.inversion": _inversion,
    "kernels.interlacing": _interlacing,
    "kernels.words": _words,
    "streams.draws": _streams,
    "suites.exchangeability": _exchangeability,
}


def compute(grid: str) -> dict[str, str]:
    """The digest of every family over one grid, "full" or "reduced"."""
    out = {name: family(grid) for name, family in FAMILIES.items()}
    out.update(_laws(grid))
    return dict(sorted(out.items()))


def load() -> dict[str, dict[str, str]]:
    return json.loads(PINS.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--full", action="store_true", help="run the full grid")
    parser.add_argument("--pin", action="store_true", help="rewrite the grid's pins")
    args = parser.parse_args(argv)
    grid = "full" if args.full else "reduced"
    got = compute(grid)
    pins = load() if PINS.exists() else {}
    old = pins.get(grid, {})
    for name, digest in got.items():
        status = "ok" if old.get(name) == digest else ("new" if name not in old else "MOVED")
        print(f"{grid} {name} {digest} {status}")
    if args.pin:
        pins[grid] = got
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return 0
    return 0 if old == got else 1


if __name__ == "__main__":
    raise SystemExit(main())
