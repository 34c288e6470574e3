"""The four benchmark workloads: pool, deep, cli-sample and laws.

Each workload runs in repetitions ("reps") of a fixed amount of work.  Rep i
draws its inputs from the seed and i only, so the same seed gives the same
inputs and, because the package is deterministic, the same outputs.
``run(i)`` does the timed work and returns a :class:`Rep`; ``absorb(rep)``
feeds its outputs to the workload's output checks (outside the timed
region); ``finish()`` runs the checks that need the pooled outputs of the
whole run.  Failed checks are collected in ``problems``.

Program functions are always looked up as module attributes at call time
(``samplers.batch_interlacing_windows``), so a traced run sees the wrappers
that the tracer patched into those modules.

An operation that raises is counted as failed, never propagated: the
benchmark is the boundary that must keep running.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from mallows import cli, dist, qseries, samplers, streams, verify

perf = time.perf_counter

#: significance level of the d0 chi-square check (as the verify suites)
CHI2_ALPHA = 0.001
#: TV(interlacing, inversion) limit on d0 (as the two-sampler suite)
TV_LIMIT = 0.01


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def rep_seed(seed: int, i: int) -> int:
    return seed * 1_000_003 + i


@dataclass
class Rep:
    """One repetition: ops attempted and failed, the timed stretches of work
    and the latencies of successful ops, both as (perf_counter time at the
    end, seconds), the outputs for the checks, and counts the workload
    observes itself (for the traced run).  The end times let the harness
    express each duration in reference-loop units measured next to it."""

    ops: int
    failed: int
    spans: list[tuple[float, float]]
    lat: list[tuple[float, float]]
    out: object
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(s for _, s in self.spans)


class Workload:
    name = ""
    #: python source run in a fresh interpreter to time import + first call
    setup_code = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.problems: list[str] = []
        self.errors: dict[str, int] = {}
        #: called between the timed stretches of a long rep, so the harness
        #: can measure its reference loop there too
        self.mark = lambda: None

    def attempt(self, fn, *args, **kwargs):
        """(result, True) or (None, False) after counting the exception."""
        try:
            return fn(*args, **kwargs), True
        except Exception as exc:  # counted as a failed operation
            kind = type(exc).__name__
            if kind not in self.errors:
                traceback.print_exc(file=sys.stderr)
            self.errors[kind] = self.errors.get(kind, 0) + 1
            return None, False

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def run(self, i: int) -> Rep:
        raise NotImplementedError

    def absorb(self, rep: Rep) -> None:
        raise NotImplementedError

    def digest(self, rep: Rep) -> str:
        raise NotImplementedError

    def finish(self) -> None:
        pass


def _array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(b"-" if a is None else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _rows_injective(w: np.ndarray) -> bool:
    return bool(np.all(np.diff(np.sort(w, axis=1), axis=1) != 0))


# --------------------------------------------------------------------------
# pool: the Tier-1 acceptance pools at q=0.5
# --------------------------------------------------------------------------

class Pool(Workload):
    """batch_interlacing_windows(0, 2) and batch_inversion_position0 at
    q=0.5, as the acceptance fixtures call them, ROWS rows each per rep."""

    name = "pool"
    Q = 0.5
    ROWS = 5000
    EPS_TV = 1e-6
    RADIUS = 8  # chi-square bins d in [-8..8] plus two tail bins
    SPAN = 64   # TV histogram range; |d0| > 64 has probability ~2^-64
    setup_code = (
        "from mallows import GeomStream, QParam, batch_interlacing_windows, "
        "batch_inversion_position0\n"
        "p = QParam(0.5); s = GeomStream(0, 0.5)\n"
        "batch_interlacing_windows(0, 2, p, s, 1)\n"
        "batch_inversion_position0(p, s, 1, 1e-6)\n"
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.p = qseries.QParam(self.Q)
        pmf = dist.displacement_pmf(self.p, self.RADIUS)
        core = [pmf.prob(d) for d in range(-self.RADIUS, self.RADIUS + 1)]
        tail = max(1.0 - sum(core), 0.0) / 2.0
        self.d0_probs = np.asarray([tail, *core, tail])
        self.d0_bins = np.zeros(2 * self.RADIUS + 3, dtype=np.int64)
        self.hist_inter = np.zeros(2 * self.SPAN + 1, dtype=np.int64)
        self.hist_inv = np.zeros(2 * self.SPAN + 1, dtype=np.int64)

    def run(self, i: int) -> Rep:
        s = streams.GeomStream(rep_seed(self.seed, i), self.Q)
        t0 = perf()
        w, ok_w = self.attempt(
            samplers.batch_interlacing_windows, 0, 2, self.p, s.spawn("interlace"), self.ROWS
        )
        inv, ok_v = self.attempt(
            samplers.batch_inversion_position0, self.p, s.spawn("inversion"), self.ROWS, self.EPS_TV
        )
        t1 = perf()
        failed = self.ROWS * ((not ok_w) + (not ok_v))
        lat = [(t1, (t1 - t0) / (2 * self.ROWS))] if not failed else []
        return Rep(2 * self.ROWS, failed, [(t1, t1 - t0)], lat, (w, inv))

    def absorb(self, rep: Rep) -> None:
        w, inv = rep.out
        if w is not None:
            if w.shape != (self.ROWS, 3) or not _rows_injective(w):
                self.problem("pool: interlacing rows not injective")
            d0 = w[:, 0]
            clipped = np.clip(d0, -self.RADIUS - 1, self.RADIUS + 1) + self.RADIUS + 1
            self.d0_bins += np.bincount(clipped, minlength=len(self.d0_bins))
            self.hist_inter += np.bincount(np.clip(d0, -self.SPAN, self.SPAN) + self.SPAN,
                                           minlength=len(self.hist_inter))
        if inv is not None:
            d_inv, ell = inv
            if np.any(ell < 0) or np.any(d_inv + ell < 0):
                self.problem("pool: negative inversion counts")
            self.hist_inv += np.bincount(np.clip(d_inv, -self.SPAN, self.SPAN) + self.SPAN,
                                         minlength=len(self.hist_inv))

    def digest(self, rep: Rep) -> str:
        w, inv = rep.out
        return _array_digest(w, *(inv if inv is not None else (None, None)))

    def finish(self) -> None:
        n = int(self.d0_bins.sum())
        if n:
            stat, threshold = chi_square(self.d0_bins, self.d0_probs)
            if stat > threshold:
                self.problem(f"pool: d0 chi-square {stat:.2f} > {threshold:.2f} (n={n})")
        if self.hist_inter.sum() and self.hist_inv.sum():
            tv = 0.5 * float(np.abs(self.hist_inter / self.hist_inter.sum()
                                    - self.hist_inv / self.hist_inv.sum()).sum())
            if not tv < TV_LIMIT:
                self.problem(f"pool: TV(interlacing, inversion) {tv:.5f} >= {TV_LIMIT}")


def chi_square(observed: np.ndarray, probs: np.ndarray, min_expected: float = 5.0):
    """Pearson statistic and its alpha=CHI2_ALPHA threshold, pooling cells
    left to right until each group expects at least min_expected counts."""
    expected = probs * observed.sum()
    obs_g, exp_g = [0.0], [0.0]
    for o, e in zip(observed, expected):
        if exp_g[-1] >= min_expected:
            obs_g.append(0.0)
            exp_g.append(0.0)
        obs_g[-1] += o
        exp_g[-1] += e
    if len(exp_g) > 1 and exp_g[-1] < min_expected:
        obs_g[-2] += obs_g.pop()
        exp_g[-2] += exp_g.pop()
    o, e = np.asarray(obs_g), np.asarray(exp_g)
    stat = float(np.sum((o - e) ** 2 / e))
    return stat, float(stats.chi2.ppf(1.0 - CHI2_ALPHA, max(len(o) - 1, 1)))


# --------------------------------------------------------------------------
# deep: the interlacing kernel with many letters per row
# --------------------------------------------------------------------------

class Deep(Workload):
    """batch_interlacing_windows on a wide window at q=0.8 and on [0..2] at
    q=0.95 (deep diagrams, scalar letter top-ups), ROWS rows each per rep."""

    name = "deep"
    CONFIGS = ((-40, 40, 0.8), (0, 2, 0.95))
    ROWS = 300
    setup_code = (
        "from mallows import GeomStream, QParam, batch_interlacing_windows\n"
        "for lo, hi, q in ((-40, 40, 0.8), (0, 2, 0.95)):\n"
        "    batch_interlacing_windows(lo, hi, QParam(q), GeomStream(0, q), 1)\n"
    )

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.params = [qseries.QParam(q) for _, _, q in self.CONFIGS]

    def run(self, i: int) -> Rep:
        outs = []
        failed = 0
        t0 = perf()
        for (lo, hi, q), p in zip(self.CONFIGS, self.params):
            s = streams.GeomStream(rep_seed(self.seed, i), q).spawn(f"deep{lo}:{hi}")
            w, ok = self.attempt(samplers.batch_interlacing_windows, lo, hi, p, s, self.ROWS)
            failed += 0 if ok else self.ROWS
            outs.append(w)
        t1 = perf()
        ops = self.ROWS * len(self.CONFIGS)
        lat = [(t1, (t1 - t0) / ops)] if not failed else []
        return Rep(ops, failed, [(t1, t1 - t0)], lat, outs)

    def absorb(self, rep: Rep) -> None:
        for (lo, hi, _), w in zip(self.CONFIGS, rep.out):
            if w is not None and (w.shape != (self.ROWS, hi - lo + 1) or not _rows_injective(w)):
                self.problem(f"deep: rows of [{lo}..{hi}] not injective")

    def digest(self, rep: Rep) -> str:
        return _array_digest(*rep.out)


# --------------------------------------------------------------------------
# cli-sample: the scalar samplers behind `mallows sample`
# --------------------------------------------------------------------------

class _TimedSink:
    """Stand-in for stdout that keeps each write and its perf_counter time."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.times: list[float] = []

    def write(self, text: str) -> int:
        self.times.append(perf())
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class CliSample(Workload):
    """In-process ``mallows.cli.main(["sample", ...])`` at q=0.5: two-sided
    interlacing and inversion on -5:5, finite and one-sided with n=20,
    COUNT windows each per rep.  One window is one JSON line."""

    name = "cli-sample"
    COUNT = 250
    MIXES = (
        ("two-sided", 11, ("--mode", "two-sided", "--window", "-5:5")),
        ("inversion", 11, ("--mode", "two-sided", "--window", "-5:5",
                           "--sampler", "inversion", "--eps-tv", "1e-9")),
        ("finite", 20, ("--mode", "finite", "--n", "20")),
        ("one-sided", 20, ("--mode", "one-sided", "--n", "20")),
    )
    setup_code = (
        "import contextlib, io\n"
        "from mallows.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['sample', '--mode', 'two-sided', '--window', '-5:5', '--q', '0.5',"
        " '--seed', '0'])\n"
    )

    def run(self, i: int) -> Rep:
        outs = []
        spans: list[tuple[float, float]] = []
        lat: list[tuple[float, float]] = []
        failed = 0
        for kind, width, args in self.MIXES:
            argv = ["sample", *args, "--q", "0.5", "--count", str(self.COUNT),
                    "--seed", str(rep_seed(self.seed, i))]
            sink = _TimedSink()
            self.mark()
            t0 = perf()
            with contextlib.redirect_stdout(sink):
                code, ok = self.attempt(cli.main, argv)
            t1 = perf()
            spans.append((t1, t1 - t0))
            windows = max(len(sink.parts) - 1, 0)
            failed += max(self.COUNT - windows, 0 if ok and code == 0 else 1)
            lat.extend((b, b - a) for a, b in zip(sink.times, sink.times[1:]))
            outs.append((kind, width, sink.parts))
        return Rep(self.COUNT * len(self.MIXES), failed, spans, lat, outs)

    def absorb(self, rep: Rep) -> None:
        for kind, width, parts in rep.out:
            lines = "".join(parts).splitlines()
            if not lines:
                continue
            try:
                header = json.loads(lines[0])
                rows = [json.loads(line)["values"] for line in lines[1:]]
            except (ValueError, KeyError, TypeError):
                self.problem(f"cli-sample: {kind} output does not parse")
                continue
            if header.get("q") != 0.5:
                self.problem(f"cli-sample: {kind} header {header}")
            for vals in rows:
                if len(vals) != width or len(set(vals)) != width:
                    self.problem(f"cli-sample: {kind} window {vals} has wrong width or repeats")
                elif kind == "finite" and sorted(vals) != list(range(1, width + 1)):
                    self.problem(f"cli-sample: finite word {vals} is not a permutation")
                elif kind == "one-sided" and min(vals) < 1:
                    self.problem(f"cli-sample: one-sided prefix {vals} has values < 1")

    def digest(self, rep: Rep) -> str:
        h = hashlib.sha256()
        for _, _, parts in rep.out:
            h.update("".join(parts).encode())
        return h.hexdigest()


# --------------------------------------------------------------------------
# laws: closed forms and certificates on a q grid running up to 0.999
# --------------------------------------------------------------------------

class Laws(Workload):
    """Per q: displacement_pmf(radius=40), fdd_probability on every point of
    the k=3 box d in {-3..3}^3 (tol 1e-12), and the exchangeability suite.

    The grid has STRATA seeded points with q = 1 - exp(-t), t stratified on
    [T_LO, T_HI] (q from 0.02 to 0.98; see ``grid``), plus the fixed points
    NEAR_ONE.
    The fixed points are where certificates degrade: q > 0.983 makes the
    radius-40 tail bound vacuous and q >= 0.997 raises today; failures are
    counted, not skipped.  Every pass empties the Pochhammer table cache,
    so the cost of building tables stays inside the run.
    """

    name = "laws"
    RADIUS = 40
    TOL = 1e-12
    BOX = tuple(itertools.product(range(-3, 4), repeat=3))
    STRATA = 4
    #: evaluations timed between two reference-loop marks (5 per q)
    CHUNK = 69
    T_LO, T_HI = -math.log(1.0 - 0.02), -math.log(1.0 - 0.98)
    NEAR_ONE = (0.985, 0.999)
    setup_code = (
        "from mallows import FddQuery, QParam, displacement_pmf, fdd_probability\n"
        "from mallows.verify import run_suite\n"
        "p = QParam(0.5)\n"
        "displacement_pmf(p, 40)\n"
        "fdd_probability(p, FddQuery(3, (0, 0, 0)), 1e-12)\n"
        "run_suite('exchangeability', (), p, 0)\n"
    )

    def grid(self, i: int) -> list[float]:
        """The q values of pass i.  Each stratum's point starts at a seeded
        offset and moves by the golden ratio from pass to pass, so the
        passes of a run cover every stratum evenly whatever the seed."""
        u0 = np.random.default_rng(self.seed % 2**64).random(self.STRATA)
        u = (u0 + i * GOLDEN) % 1.0
        width = (self.T_HI - self.T_LO) / self.STRATA
        ts = self.T_LO + width * (np.arange(self.STRATA) + 1.0 - u)
        return [float(-np.expm1(-t)) for t in ts] + list(self.NEAR_ONE)

    def run(self, i: int) -> Rep:
        qs = self.grid(i)
        clear = getattr(getattr(qseries, "_build_table", None), "cache_clear", None)
        if clear is not None:
            clear()
        results = []
        spans: list[tuple[float, float]] = []
        lat: list[tuple[float, float]] = []
        failed = vacuous = 0
        for q in qs:
            p = qseries.QParam(q)
            calls = [functools.partial(dist.displacement_pmf, p, self.RADIUS)]
            calls += [functools.partial(self._fdd, p, d) for d in self.BOX]
            calls.append(functools.partial(verify.run_suite, "exchangeability", (), p, 0))
            values = []
            for start in range(0, len(calls), self.CHUNK):
                self.mark()
                t0 = perf()
                for call in calls[start:start + self.CHUNK]:
                    t = perf()
                    value, ok = self.attempt(call)
                    if ok:
                        end = perf()
                        lat.append((end, end - t))
                    else:
                        failed += 1
                    values.append(value)
                t1 = perf()
                spans.append((t1, t1 - t0))
            pmf, *fdds, report = values
            vacuous += pmf is not None and pmf.tail_bound >= 1.0
            results.append((q, pmf, fdds, report))
        ops = len(qs) * (len(self.BOX) + 2)
        return Rep(ops, failed, spans, lat, results, {"dist.vacuous_tail_bounds": vacuous})

    def _fdd(self, p, d):
        return dist.fdd_probability(p, dist.FddQuery(3, d), self.TOL)

    def absorb(self, rep: Rep) -> None:
        for q, pmf, fdds, report in rep.out:
            if pmf is not None:
                probs = [pmf.prob(d) for d in range(-self.RADIUS, self.RADIUS + 1)]
                if any(pmf.prob(d) != pmf.prob(-d) for d in range(1, self.RADIUS + 1)):
                    self.problem(f"laws: pmf at q={q!r} is not exactly symmetric")
                gap = 1.0 - math.fsum(probs)
                # the series are truncated at relative error eps_series
                slack = qseries.QParam(q).eps_series
                if not -slack <= gap <= pmf.tail_bound + slack:
                    self.problem(f"laws: pmf gap {gap!r} at q={q!r} outside tail bound "
                                 f"{pmf.tail_bound!r}")
            for d, fdd in zip(self.BOX, fdds):
                if fdd is not None and not (fdd[1] >= 0.0 and math.isfinite(fdd[0])):
                    self.problem(f"laws: fdd {d} at q={q!r} has error bound {fdd[1]!r}")
            if report is not None and not report.overall_pass:
                self.problem(f"laws: exchangeability suite fails at q={q!r}")

    def digest(self, rep: Rep) -> str:
        h = hashlib.sha256()
        for q, pmf, fdds, report in rep.out:
            table = None if pmf is None else (sorted(pmf.probs.items()), pmf.tail_bound)
            suite = None if report is None else report.to_json()
            h.update(repr((q, table, fdds, suite)).encode())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (Pool, Deep, CliSample, Laws)}
