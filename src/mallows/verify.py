"""Statistical verification suites: samplers vs formulas vs each other.

Each suite draws on substreams spawned by case label from the one master
stream that run_suite builds, computes one or more test statistics with
fixed thresholds, and returns its cases; run_suite sorts them by name into
a :class:`VerificationReport`, a deterministic function of (suite, seed, q,
count).  Every case records the statistic and threshold that decided it.

Threshold policy: chi-square cases test at alpha = 0.001, KS cases at
alpha = 0.01, both chosen so a full default run false-fails well under 5%
of the time.  Deterministic (non-statistical) cases use machine-precision
thresholds and report samples_used = 0.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from itertools import permutations

import numpy as np

from .dist import conditional_l_given_r, displacement_pmf
from .errors import DomainError, UnknownSuiteError
from .oracle import oracle_enumerate
from .perm import adjacent_swap_r, invert_window, truncate
from .qseries import QParam
from .samplers import (
    batch_finite_r,
    batch_interlacing_windows,
    batch_inversion_position0,
    finite_r_codes,
)
from .streams import GeomStream

CHI2_ALPHA = 0.001
#: the least expected count of a pooled chi-square group
MIN_EXPECTED = 5.0
KS_ALPHA = 0.01


@dataclass(frozen=True)
class CaseResult:
    name: str
    statistic: float
    threshold: float
    passed: bool
    samples_used: int

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "pass": self.passed,
            "samples_used": self.samples_used,
        }


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases: tuple[CaseResult, ...]
    overall_pass: bool
    seed: int
    q: float

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases": [c.to_json() for c in self.cases],
            "overall_pass": self.overall_pass,
            "seed": self.seed,
            "q": self.q,
        }


# --------------------------------------------------------------------------
# statistic helpers
# --------------------------------------------------------------------------

def chi_square_case(
    name: str, observed: np.ndarray, probs: np.ndarray, alpha: float = CHI2_ALPHA
) -> CaseResult:
    """Pearson chi-square with greedy pooling of low-expectation cells.

    Cells are pooled left to right until each group's expected count is at
    least MIN_EXPECTED; a deficient final group is merged backwards.  Fewer
    than two groups leave nothing to test, and DomainError is raised.
    """
    n = int(observed.sum())
    exp = probs * n
    groups_obs: list[float] = []
    groups_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, exp):
        acc_o += o
        acc_e += e
        if acc_e >= MIN_EXPECTED:
            groups_obs.append(acc_o)
            groups_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and groups_exp:
        groups_obs[-1] += acc_o
        groups_exp[-1] += acc_e
    if len(groups_obs) < 2:
        raise DomainError(
            f"{name}: {n} samples make fewer than 2 groups of expected count >= {MIN_EXPECTED}"
        )
    obs_arr = np.asarray(groups_obs)
    exp_arr = np.asarray(groups_exp)
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    threshold = _chi2_quantile(1.0 - alpha, len(groups_obs) - 1)
    return CaseResult(name, stat, threshold, stat <= threshold, n)


def ks_case(
    name: str, xs: np.ndarray, ys: np.ndarray, alpha: float = KS_ALPHA
) -> CaseResult:
    """Two-sample KS with the asymptotic critical value.

    For integer-valued samples the tie-heavy statistic makes the test
    conservative, which is the safe direction for a regression gate.  An
    empty sample raises DomainError, and so does a threshold of 1 or more,
    which no KS statistic exceeds.
    """
    n, m = len(xs), len(ys)
    if n == 0 or m == 0:
        raise DomainError(f"{name}: an empty sample cannot be tested ({n} and {m} values)")
    c_alpha = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    threshold = c_alpha * math.sqrt((n + m) / (n * m))
    if threshold >= 1.0:
        raise DomainError(
            f"{name}: {n} and {m} values give threshold {threshold!r} >= 1, which cannot fail"
        )
    d = _ks_statistic(xs, ys)
    return CaseResult(name, d, threshold, d <= threshold, n + m)


def _chi2_quantile(prob: float, df: int) -> float:
    """The chi-square quantile scipy.stats.chi2.ppf(prob, df), as twice the
    inverse regularized lower incomplete gamma function at df/2: the
    formula chi2.ppf evaluates, without importing scipy.stats (most of a
    suite's wall time in a fresh process)."""
    from scipy import special  # loaded by the first chi-square case only

    return float(2.0 * special.gammaincinv(df / 2.0, prob))


def _ks_statistic(xs: np.ndarray, ys: np.ndarray) -> float:
    """The two-sample KS statistic of scipy.stats.ks_2samp: the largest
    |F_x - F_y| of the two empirical CDFs, taken over the pooled sample."""
    xs, ys = np.sort(xs), np.sort(ys)
    pooled = np.concatenate((xs, ys))
    fx = np.searchsorted(xs, pooled, side="right") / xs.size
    fy = np.searchsorted(ys, pooled, side="right") / ys.size
    return float(np.abs(fx - fy).max())


def tv_distance_counts(xs: np.ndarray, ys: np.ndarray) -> float:
    """Total variation distance between two empirical integer laws."""
    lo = int(min(xs.min(), ys.min()))
    hi = int(max(xs.max(), ys.max()))
    fx = np.bincount(xs - lo, minlength=hi - lo + 1) / len(xs)
    fy = np.bincount(ys - lo, minlength=hi - lo + 1) / len(ys)
    return float(0.5 * np.abs(fx - fy).sum())


def _displacement_bin_probs(p: QParam, radius: int) -> np.ndarray:
    """Exact bin probabilities: d in [-radius..radius] plus two tail bins."""
    pmf = displacement_pmf(p, radius)
    core = [pmf.prob(d) for d in range(-radius, radius + 1)]
    tail = max(1.0 - sum(core), 0.0) / 2.0
    return np.asarray([tail, *core, tail])


def _bin_displacements(d0: np.ndarray, radius: int) -> np.ndarray:
    clipped = np.clip(d0, -radius - 1, radius + 1)
    return np.bincount(clipped + radius + 1, minlength=2 * radius + 3)


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------

def _suite_finite_oracle(p: QParam, master: GeomStream, draws: int) -> list[CaseResult]:
    cases = []
    for n in (3, 4, 5):
        s = master.spawn(f"finite-oracle-n{n}")
        codes = finite_r_codes(batch_finite_r(n, p, s, draws))
        nfact = math.factorial(n)
        observed = np.bincount(codes, minlength=nfact).astype(float)
        # a word's code is its lexicographic rank, the oracle's order
        probs = np.fromiter(oracle_enumerate(n, p).probs.values(), float, nfact)
        cases.append(chi_square_case(f"chi-square-n{n}", observed, probs))
    return cases


def _suite_displacement(p: QParam, master: GeomStream, draws: int) -> list[CaseResult]:
    w = batch_interlacing_windows(0, 0, p, master.spawn("displacement"), draws)
    radius = 8
    observed = _bin_displacements(w[:, 0], radius).astype(float)
    return [chi_square_case("chi-square-d0", observed, _displacement_bin_probs(p, radius))]


def _suite_stationarity(p: QParam, master: GeomStream, draws: int) -> list[CaseResult]:
    d0 = batch_interlacing_windows(0, 0, p, master.spawn("pos0"), draws)[:, 0]
    d5 = batch_interlacing_windows(5, 5, p, master.spawn("pos5"), draws)[:, 0] - 5
    return [ks_case("ks-d0-vs-d5", d0, d5)]


def _suite_inversion_invariance(p: QParam, master: GeomStream, draws: int) -> list[CaseResult]:
    lo, hi = -3, 3

    def self_contained_rows(label: str) -> np.ndarray:
        w = batch_interlacing_windows(lo, hi, p, master.spawn(label), draws)
        mask = (w.min(axis=1) == lo) & (w.max(axis=1) == hi)
        return w[mask]

    sigma0 = self_contained_rows("forward")[:, -lo]
    inv_sigma0 = invert_window(self_contained_rows("inverse"), lo)[:, -lo]
    return [ks_case("ks-sigma-vs-inverse", sigma0, inv_sigma0)]


@cache
def _swaps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two read-only (n-1) x n! arrays: row i holds the index of each word
    of S_n with letters i and i+1 swapped, and whether that swap adds an
    inversion.

    The oracle lists S_n in lexicographic order, as permutations() does, so
    probs[c] is the law of word c.  Read as base-n numbers the words
    increase, so a swapped word is found by searching its number.  Built
    from permutations() and numpy alone, independent of q, once per n.
    """
    words = np.array(list(permutations(range(n))))
    digits = n ** np.arange(n - 1, -1, -1)
    numbers = words @ digits
    index = np.empty((n - 1, len(words)), dtype=np.intp)
    for i in range(n - 1):
        swapped = words.copy()
        swapped[:, [i, i + 1]] = words[:, [i + 1, i]]
        index[i] = np.searchsorted(numbers, swapped @ digits)
    adds = np.ascontiguousarray((words[:, :-1] < words[:, 1:]).T)
    index.flags.writeable = adds.flags.writeable = False
    return index, adds


def _suite_exchangeability(p: QParam, master: GeomStream, draws: None) -> list[CaseResult]:
    q = p.q
    # both cases compare ratios of powers of q up to q**25 relative to the
    # ratio wanted; below q ~ 4.94e-13 that power is not a normal double
    if q**25 < sys.float_info.min:
        raise DomainError(f"q={q}: q**25 = {q**25!r} is not a normal double, "
                          "so the swap ratios cannot be checked")
    # r-code identity: swapping adjacent positions multiplies the weight by
    # q^{+1} or q^{-1} according to whether an inversion is created
    # (each case's statistic is np.max of its errors, which a NaN error
    # makes NaN, so the case fails; Python's max would drop it)
    errs = []
    for a in range(13):
        for b in range(13):
            na, nb = adjacent_swap_r(a, b)
            got = q ** (na + nb) / q ** (a + b)
            want = q if a <= b else 1.0 / q
            errs.append(abs(got - want) / want)
    worst_r = float(np.max(errs))
    cases = [CaseResult("swap-ratio-rcode", worst_r, 1e-12, worst_r <= 1e-12, 0)]
    # oracle identity on S_n, read through the swap tables of _swaps
    errs = []
    for n in range(2, 7):
        probs = np.fromiter(oracle_enumerate(n, p).probs.values(), float)
        index, adds = _swaps(n)
        want = np.where(adds, q, 1.0 / q)
        errs.append((np.abs(probs[index] / probs - want) / want).max())
    worst_o = float(np.max(errs))
    cases.append(CaseResult("swap-ratio-oracle", worst_o, 1e-12, worst_o <= 1e-12, 0))
    return cases


def _suite_two_sampler(p: QParam, master: GeomStream, draws: int) -> list[CaseResult]:
    d_inter = batch_interlacing_windows(0, 0, p, master.spawn("interlacing"), draws)[:, 0]
    d_inv, _ = batch_inversion_position0(p, master.spawn("inversion"), draws, 1e-6)
    tv = tv_distance_counts(d_inter, d_inv)
    return [CaseResult("tv-d0", tv, 0.01, tv <= 0.01, 2 * draws)]


def _suite_truncation_convergence(p: QParam, master: GeomStream, draws: int) -> list[CaseResult]:
    w = batch_interlacing_windows(-40, 40, p, master.spawn("truncation"), draws)
    center = w[:, 40]
    # the share of rows whose truncation to [-n..n] moves the value at 0
    fracs = [float(np.mean(truncate(w, -40, -n, n)[:, n] != center)) for n in (5, 10, 20, 40)]
    worst_increase = max(b - a for a, b in zip(fracs, fracs[1:]))
    return [
        CaseResult("monotone-in-n", worst_increase, 0.0, worst_increase <= 0.0, draws),
        CaseResult("tail-at-n40", fracs[-1], 0.01, fracs[-1] < 0.01, draws),
    ]


def _suite_lln(p: QParam, master: GeomStream, draws: int) -> list[CaseResult]:
    """z-score of the mean left count at position 0 against q/(1+q).

    The implemented joint law has E[L] = q/(1-q) (its L marginal is
    geometric with ratio q, matching the R marginal by symmetry), so this
    suite fails by construction; q/(1+q) is the density of adjacent
    descents, a different statistic, kept as specified and in the README.
    """
    if draws < 2:
        raise DomainError(f"lln needs at least 2 draws for a standard error, got {draws}")
    _, ell0 = batch_inversion_position0(p, master.spawn("lln"), draws, 1e-6)
    target = p.q / (1.0 + p.q)
    mean = float(ell0.mean())
    se = float(ell0.std(ddof=1)) / math.sqrt(draws)
    if not se > 0.0:
        raise DomainError(f"lln: all {draws} left counts agree, so the standard error is 0")
    z = abs(mean - target) / se
    return [CaseResult("mean-ell-vs-q-over-1plusq", z, 3.0, z <= 3.0, draws)]


def _suite_one_sided_left_counts(p: QParam, master: GeomStream, draws: int) -> list[CaseResult]:
    d0, ell0 = batch_inversion_position0(p, master.spawn("left-counts"), draws, 1e-9)
    r0 = d0 + ell0
    cases = []
    lmax = 10
    for r in (0, 1, 2):
        sub = ell0[r0 == r]
        observed = np.bincount(np.clip(sub, 0, lmax + 1), minlength=lmax + 2).astype(float)
        core = [conditional_l_given_r(p, r, l) for l in range(lmax + 1)]
        probs = np.asarray([*core, max(1.0 - sum(core), 0.0)])
        cases.append(chi_square_case(f"chi-square-ell-given-r{r}", observed, probs))
    return cases


#: each suite with its default draws per case; None for a suite that draws
#: nothing and so takes no count
_SUITES = {
    "finite-oracle": (_suite_finite_oracle, 200_000),
    "displacement": (_suite_displacement, 200_000),
    "stationarity": (_suite_stationarity, 100_000),
    "inversion-invariance": (_suite_inversion_invariance, 100_000),
    "exchangeability": (_suite_exchangeability, None),
    "two-sampler": (_suite_two_sampler, 200_000),
    "truncation-convergence": (_suite_truncation_convergence, 20_000),
    "lln": (_suite_lln, 200_000),
    "one-sided-left-counts": (_suite_one_sided_left_counts, 100_000),
}

SUITE_NAMES = tuple(sorted(_SUITES))


def run_suite(
    name: str, sizes: tuple[int, ...], p: QParam, seed: int
) -> VerificationReport:
    """Run one named suite and return its report.

    sizes is one count, (draws per case,), in place of the suite's default;
    pass () for the default, and always for exchangeability, which draws
    nothing.  Raises UnknownSuiteError for a name outside SUITE_NAMES, and
    DomainError for any other sizes before anything is drawn, or for a case
    with too few samples to test.
    """
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose one of {', '.join(SUITE_NAMES)}"
        )
    suite, default = _SUITES[name]
    if default is None and sizes:
        raise DomainError(f"suite {name} draws nothing and takes no count, got {tuple(sizes)}")
    if len(sizes) > 1 or any(n < 1 for n in sizes):
        raise DomainError(f"sizes must be one count >= 1, got {tuple(sizes)}")
    draws = sizes[0] if sizes else default
    cases = tuple(sorted(suite(p, GeomStream(seed, p.q), draws), key=lambda c: c.name))
    return VerificationReport(name, cases, all(c.passed for c in cases), seed, p.q)
