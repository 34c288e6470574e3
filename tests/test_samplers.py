"""Exactness and determinism checks for the scalar and batch samplers."""
from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import oracles
from mallows.dist import FddQuery, displacement_pmf, fdd_probability
from mallows.errors import DomainError
from mallows.perm import _chain_horizon, _leftward_chains
from mallows.qseries import QParam, pochhammer_table
from mallows.samplers import (
    YoungDiagram,
    _diagram_triples,
    _part_search,
    _sign_counts,
    batch_finite_r,
    batch_finite_words,
    batch_interlacing_windows,
    batch_inversion_position0,
    batch_inversion_windows,
    batch_shuffle_prefixes,
    finite_code_to_r,
    finite_r_codes,
    q_shuffle_prefix,
    sample_finite_mallows,
    sample_two_sided_interlacing,
    sample_two_sided_inversion,
    sample_young_euler,
)
from mallows.streams import GeomStream

P5 = QParam(0.5)
CHI2_ALPHA = 1e-3  # conservative: false alarms once per ~1000 runs per test
SIGMA_BOUND = 4.5  # z-score ceiling for frequency checks

# partition counts p(0)..p(10)
PARTITIONS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def chi2_stat(observed, expected):
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    return float(((obs - exp) ** 2 / exp).sum())


def chi2_threshold(df: int) -> float:
    return float(stats.chi2.ppf(1.0 - CHI2_ALPHA, df))


# --------------------------------------------------------------------------
# diagram container
# --------------------------------------------------------------------------

def test_young_diagram_rejects_bad_parts():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))  # increasing
    with pytest.raises(ValueError):
        YoungDiagram((0,))  # non-positive


# --------------------------------------------------------------------------
# truncated geometric
# --------------------------------------------------------------------------

def test_truncated_geometric_support_and_law():
    s = GeomStream(seed=11, q=0.5)
    limit = 3
    n = 40_000
    counts = np.zeros(limit + 1)
    for _ in range(n):
        k = int(s.truncated_geometrics(1, limit)[0])
        assert 0 <= k <= limit
        counts[k] += 1
    norm = (1.0 - 0.5 ** (limit + 1)) / (1.0 - 0.5)
    expected = np.array([0.5**k / norm for k in range(limit + 1)]) * n
    stat = chi2_stat(counts, expected)
    thr = chi2_threshold(limit)
    assert stat < thr, f"chi2 {stat:.2f} >= {thr:.2f}"


def test_truncated_geometric_limit_zero_consumes_nothing():
    a = GeomStream(seed=7, q=0.5)
    b = GeomStream(seed=7, q=0.5)
    for _ in range(5):
        assert a.truncated_geometrics(1, 0).tolist() == [0]
    assert a.uniform() == b.uniform()


# --------------------------------------------------------------------------
# finite sampler
# --------------------------------------------------------------------------

def test_finite_sampler_output_shape():
    s = GeomStream(seed=3, q=0.5)
    for _ in range(200):
        w = sample_finite_mallows(6, P5, s)
        assert (w.lo, w.hi) == (1, 6)
        assert sorted(w.values) == [1, 2, 3, 4, 5, 6]


def test_finite_sampler_matches_brute_force_pmf():
    q = 0.5
    n_draws = 30_000
    pmf = oracles.brute_pmf(3, q)
    keys = sorted(pmf)
    index = {k: i for i, k in enumerate(keys)}
    counts = np.zeros(len(keys))
    s = GeomStream(seed=21, q=q)
    for _ in range(n_draws):
        counts[index[sample_finite_mallows(3, QParam(q), s).values]] += 1
    expected = np.array([pmf[k] for k in keys]) * n_draws
    stat = chi2_stat(counts, expected)
    thr = chi2_threshold(len(keys) - 1)
    assert stat < thr, f"chi2 {stat:.2f} >= {thr:.2f}"


def test_finite_sampler_rejects_stream_mismatch():
    s = GeomStream(seed=0, q=0.3)
    with pytest.raises(DomainError):
        sample_finite_mallows(4, P5, s)


# --------------------------------------------------------------------------
# q-shuffle
# --------------------------------------------------------------------------

def test_q_shuffle_prefix_shape():
    s = GeomStream(seed=5, q=0.5)
    for _ in range(100):
        w = q_shuffle_prefix(6, P5, s)
        assert len(w) == 6
        assert len(set(w)) == 6
        assert all(v >= 1 for v in w)


def test_q_shuffle_first_letter_law():
    # first letter is 1 + Geom(q): P(w1 = 1 + b) = (1-q) q^b
    s = GeomStream(seed=13, q=0.5)
    n = 50_000
    counts = np.zeros(16)
    for _ in range(n):
        w1 = q_shuffle_prefix(1, P5, s)[0]
        counts[min(w1 - 1, 15)] += 1
    for b in range(6):
        p_b = 0.5 * 0.5**b
        z = (counts[b] - n * p_b) / np.sqrt(n * p_b * (1 - p_b))
        assert abs(z) < SIGMA_BOUND, f"letter {1 + b}: z = {z:.2f}"


# --------------------------------------------------------------------------
# Young-diagram sampler
# --------------------------------------------------------------------------

def test_young_sampler_size_law():
    q = 0.5
    n_draws = 30_000
    s = GeomStream(seed=29, q=q)
    sizes = np.zeros(n_draws, dtype=np.int64)
    for i in range(n_draws):
        sizes[i] = sum(sample_young_euler(QParam(q), s).parts)
    poch_inf = pochhammer_table(QParam(q)).infinite_value

    # chi-square of |lambda| against p(n) <inf> q^n with a pooled tail
    nmax = len(PARTITIONS) - 1
    probs = [PARTITIONS[n] * poch_inf * q**n for n in range(nmax + 1)]
    probs.append(1.0 - sum(probs))
    counts = np.bincount(np.minimum(sizes, nmax + 1), minlength=nmax + 2)
    stat = chi2_stat(counts, np.array(probs) * n_draws)
    thr = chi2_threshold(nmax + 1)
    assert stat < thr, f"chi2 {stat:.2f} >= {thr:.2f}"

    # mean size: sum_k k q^k / (1 - q^k)
    mean_exact = sum(k * q**k / (1 - q**k) for k in range(1, 200))
    se = sizes.std(ddof=1) / np.sqrt(n_draws)
    z = (sizes.mean() - mean_exact) / se
    assert abs(z) < SIGMA_BOUND, f"mean size z = {z:.2f}"


class _ConstantStream:
    """Ratio q; every uniform is u.  Counts its uniform calls and fails once
    they pass limit, so a search that does not end fails instead of hanging."""

    def __init__(self, q, u, limit):
        self.q, self.u, self.limit, self.calls = q, u, limit, 0

    def uniform(self):
        self.calls += 1
        assert self.calls <= self.limit, "the part search did not end"
        return self.u

    def geometrics(self, n, ratio):
        return np.floor(np.log(np.full(n, self.u)) / np.log(ratio)).astype(np.int64)


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.8, 0.95, 0.99])
@pytest.mark.parametrize("u", [1.0, 1.0 - 2.0**-53, 2.0**-53])
def test_young_multiplicities_stop_at_float_saturation(q, u):
    # U = 1 asks for a part wherever <j>_q still drops, up to where 1 - q^j
    # rounds to 1; the search must end there, inside the table
    values = pochhammer_table(QParam(q)).values
    s = _ConstantStream(q, u, limit=len(values))
    parts = sample_young_euler(QParam(q), s).parts
    sizes = set(parts)
    # one uniform per distinct part size, found once each, and one that ends
    assert len(sizes) == s.calls - 1
    assert all(1 <= j < len(values) for j in sizes)
    if u > 0.5:
        # every geometric is 0: each size has multiplicity 1
        assert len(parts) == len(sizes)
    if u == 1.0:
        assert sizes == {j for j in range(1, len(values)) if values[j] < values[j - 1]}


def _assert_size_law(sizes, q):
    # P(lambda = empty) = <inf>_q, checked by both binomial tails, and
    # E|lambda| = sum_k k q^k / (1 - q^k)
    n = sizes.size
    p_empty = pochhammer_table(QParam(q)).infinite_value
    empty = int((sizes == 0).sum())
    assert stats.binom.cdf(empty, n, p_empty) > CHI2_ALPHA
    assert stats.binom.sf(empty - 1, n, p_empty) > CHI2_ALPHA
    k = np.arange(1, 20_000)
    mean_exact = float((k * q**k / (1 - q**k)).sum())
    z = (sizes.mean() - mean_exact) / (sizes.std(ddof=1) / np.sqrt(n))
    assert abs(z) < SIGMA_BOUND, f"mean size z = {z:.2f}"


@pytest.mark.parametrize("q, n_draws", [(0.95, 4_000), (0.99, 1_500)])
def test_young_sampler_deep_diagram_law(q, n_draws):
    s = GeomStream(seed=37, q=q)
    sizes = np.array([sum(sample_young_euler(QParam(q), s).parts) for _ in range(n_draws)])
    _assert_size_law(sizes, q)


@pytest.mark.parametrize("q", [0.95, 0.99])
def test_diagram_triples_deep_diagram_law(q):
    rows = 20_000
    tables = map(np.array, _part_search(QParam(q)))
    row, part, mult = _diagram_triples(GeomStream(seed=41, q=q), rows, *tables)
    sizes = np.bincount(row, weights=part.astype(np.int64) * mult, minlength=rows)
    _assert_size_law(sizes, q)


@pytest.mark.parametrize("q", [0.998, 0.999])
def test_diagram_samplers_refuse_subnormal_euler_constant(q):
    p = QParam(q)
    with pytest.raises(DomainError):
        sample_young_euler(p, GeomStream(seed=0, q=q))
    with pytest.raises(DomainError):
        sample_two_sided_interlacing(0, 2, p, GeomStream(seed=0, q=q))
    s = GeomStream(seed=0, q=q)
    with pytest.raises(DomainError):
        batch_interlacing_windows(0, 2, p, s, 3)
    assert s.counter == 0


def test_diagram_samplers_still_draw_at_q_0997():
    q, p = 0.997, QParam(0.997)
    assert sample_young_euler(p, GeomStream(seed=0, q=q)).parts
    w = sample_two_sided_interlacing(0, 2, p, GeomStream(seed=0, q=q))
    assert len(set(w.values)) == 3
    windows = batch_interlacing_windows(0, 2, p, GeomStream(seed=0, q=q), 3)
    assert all(len(set(row.tolist())) == 3 for row in windows)


def test_young_sampler_parts_sorted():
    s = GeomStream(seed=31, q=0.6)
    for _ in range(500):
        lam = sample_young_euler(QParam(0.6), s)
        assert all(
            lam.parts[i] >= lam.parts[i + 1] for i in range(len(lam.parts) - 1)
        )


# --------------------------------------------------------------------------
# sign words and interlacing slots
# --------------------------------------------------------------------------

def test_sign_word_empty_diagram():
    assert oracles.sign_word((), -2, 3) == (-1, -1, -1, 1, 1, 1)


def test_sign_word_one_box():
    # lambda = (1): the +1 at position 1 and the -1 at position 0 swap
    assert oracles.sign_word((1,), -2, 3) == (-1, -1, 1, -1, 1, 1)


@pytest.mark.parametrize(
    "parts", [(), (1,), (2, 1), (4, 4, 2, 1), (3, 3, 3), (5, 2, 1, 1, 1)]
)
def test_sign_word_crossings_count_boxes(parts):
    # pairs (i < j) with w_i = +1, w_j = -1 count the boxes of lambda
    word = oracles.sign_word(parts, -12, 12)
    crossings = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] == 1 and word[j] == -1
    )
    assert crossings == sum(parts), f"parts {parts}"


def _triples(diagrams):
    """(row, part size, multiplicity) arrays of the batch kernel's layout."""
    out = [(r, k, c) for r, parts in enumerate(diagrams)
           for k, c in sorted(Counter(parts).items(), reverse=True)]
    return tuple(np.array([t[j] for t in out], dtype=np.int32) for j in range(3))


def _random_diagrams(rng, n, max_part):
    diagrams = []
    for _ in range(n):
        sizes = rng.choice(np.arange(1, max_part + 1), size=rng.integers(0, 6), replace=False)
        diagrams.append(tuple(sorted(
            (int(k) for k in sizes for _ in range(rng.integers(1, 4))), reverse=True)))
    return diagrams


def _assert_counts_match_slots(diagrams, c, lo, hi):
    for r, parts in enumerate(diagrams):
        # no + lies below 1 - lambda_1 and no - above len(parts), so on
        # [L..H] ranks count from the ends of the word
        L, H = min(lo, 1 - (parts[0] if parts else 0)), max(hi, len(parts))
        word = np.array(oracles.sign_word(parts, L, H))
        plus_rank = np.cumsum(word == 1)  # #(+ in [L..i])
        minus_rank = np.cumsum(word[::-1] == -1)[::-1]  # #(- in [i..H])
        kmax, tmax = plus_rank[hi - L], minus_rank[lo - L]
        assert (hi + c[r, -1], c[r, 0]) == (kmax, tmax), parts
        for i in range(lo, hi + 1):
            before, at = c[r, i - lo], c[r, i - lo + 1]
            if at == before:
                assert word[i - L] == 1 and plus_rank[i - L] == i + at, (parts, i)
            else:
                assert word[i - L] == -1 and minus_rank[i - L] == before, (parts, i)


@pytest.mark.parametrize(
    "lo, hi", [(-12, -5), (-1, -1), (0, 0), (3, 9), (-6, 6), (-40, 40), (50, 60), (1, 1)]
)
def test_sign_counts_agree_with_slots(lo, hi):
    # shallow and deep diagrams, empty ones among them, in one batch
    rng = np.random.default_rng(101)
    shallow, deep = _random_diagrams(rng, 60, 12), _random_diagrams(rng, 20, 400)
    diagrams = [()] + shallow + [(), ()] + deep + [()]
    row, part, mult = _triples(diagrams)
    c = _sign_counts(row, part, mult, len(diagrams), lo, hi)
    assert c.shape == (len(diagrams), hi - lo + 2)
    _assert_counts_match_slots(diagrams, c, lo, hi)


def test_diagram_triples_deep_rows():
    # at q=0.95 a row has about 19 part sizes, so the search takes many
    # rounds, each over a different set of rows still drawing
    p = QParam(0.95)
    tables = map(np.array, _part_search(p))
    row, part, mult = _diagram_triples(GeomStream(seed=103, q=0.95), 300, *tables)
    assert (np.diff(row) >= 0).all() and (mult >= 1).all() and row.max() < 300
    same_row = row[1:] == row[:-1]
    assert (part[1:][same_row] < part[:-1][same_row]).all()
    assert row.size / 300 > 10
    diagrams = [()] * 300
    for r in range(300):
        sel = row == r
        diagrams[r] = tuple(int(k) for k, c in zip(part[sel], mult[sel]) for _ in range(c))
    for lo, hi in [(-5, 5), (0, 2), (-9, -4), (4, 8)]:
        c = _sign_counts(row, part, mult, 300, lo, hi)
        _assert_counts_match_slots(diagrams, c, lo, hi)


# --------------------------------------------------------------------------
# two-sided samplers
# --------------------------------------------------------------------------

def test_interlacing_sampler_deterministic():
    a = [sample_two_sided_interlacing(-3, 3, P5, GeomStream(seed=42, q=0.5))]
    b = [sample_two_sided_interlacing(-3, 3, P5, GeomStream(seed=42, q=0.5))]
    assert a == b


def test_interlacing_sampler_signs_match_the_diagram():
    # the sampler's first draws are its diagram, so a second stream of the
    # same seed gives that diagram through sample_young_euler
    for seed in range(300):
        w = sample_two_sided_interlacing(-4, 4, P5, GeomStream(seed=seed, q=0.5))
        lam = sample_young_euler(P5, GeomStream(seed=seed, q=0.5))
        word = oracles.sign_word(lam.parts, -4, 4)
        for i in range(-4, 5):
            positive = w.values[i + 4] >= 1
            assert positive == (word[i + 4] == 1), f"seed {seed} position {i}"


def test_inversion_sampler_windows_are_valid():
    s = GeomStream(seed=47, q=0.5)
    for _ in range(200):
        w = sample_two_sided_inversion(-2, 2, P5, s, 1e-9)
        assert (w.lo, w.hi) == (-2, 2)
        assert len(set(w.values)) == 5


def test_inversion_sampler_deterministic():
    a = sample_two_sided_inversion(-2, 2, P5, GeomStream(seed=51, q=0.5), 1e-9)
    b = sample_two_sided_inversion(-2, 2, P5, GeomStream(seed=51, q=0.5), 1e-9)
    assert a == b


def test_inversion_sampler_rejects_bad_eps():
    s = GeomStream(seed=0, q=0.5)
    with pytest.raises(DomainError):
        sample_two_sided_inversion(0, 0, P5, s, 0.0)


def _chain_replay(lo, hi, p, s, eps_tv):
    """Window by one oracles.left_walk chain per position: the right counts
    first, then one lazily drawn cache of right counts left of the window
    that every chain reads from its start until its state reaches the
    horizon."""
    xstar = _chain_horizon(p.q, eps_tv)
    r = s.geometrics(hi - lo + 1).tolist()
    cache: list[int] = []
    window = []
    for k, rj in enumerate(r):
        ell, x = oracles.left_walk(r[:k][::-1], rj)
        depth = 0
        while x < xstar:
            if depth == len(cache):
                cache.append(int(s.geometrics(1)[0]))
            more, x = oracles.left_walk(cache[depth : depth + 1], x)
            ell += more
            depth += 1
        window.append(lo + k + rj - ell)
    return window


@pytest.mark.parametrize("q", [0.05, 0.3, 0.8, 0.95])
@pytest.mark.parametrize("eps_tv", [1e-3, 1e-9])
def test_inversion_kernel_at_count_one_is_the_chain_replay(q, eps_tv):
    _assert_kernel_is_chain_replay(q, eps_tv)


@pytest.mark.parametrize("eps_tv", [2.0**-28, 2.0**-30])
def test_inversion_kernel_stops_where_the_chain_does_at_boundary_eps(eps_tv):
    # q^(x+1)/(1-q) meets eps_tv exactly at some state x; the chain stops
    # there, and so must the kernel's horizon
    _assert_kernel_is_chain_replay(0.5, eps_tv)


def _assert_kernel_is_chain_replay(q, eps_tv):
    p = QParam(q)
    for lo, hi in ((-5, 5), (0, 0), (3, 9), (-12, 12)):
        for seed in range(1, 6):
            a, b = GeomStream(seed=seed, q=q), GeomStream(seed=seed, q=q)
            for _ in range(3):
                values, ell = batch_inversion_windows(lo, hi, p, a, 1, eps_tv)
                assert values.shape == ell.shape == (1, hi - lo + 1)
                assert values[0].tolist() == _chain_replay(lo, hi, p, b, eps_tv)
                assert a.counter == b.counter
    s = GeomStream(seed=7, q=q)
    w = sample_two_sided_inversion(-5, 5, p, s, eps_tv)
    assert list(w.values) == _chain_replay(-5, 5, p, GeomStream(seed=7, q=q), eps_tv)


def test_inversion_kernel_joint_law_of_two_positions():
    q, n_draws = 0.5, 200_000
    p = QParam(q)
    values, ell = batch_inversion_windows(-1, 0, p, GeomStream(seed=97, q=q), n_draws, 1e-9)
    assert ell.min() >= 0
    # cells (d_-1, d_0) in [-4..4]^2, row-major
    d = values - np.arange(-1, 1) + 4
    inside = np.all((d >= 0) & (d <= 8), axis=1)
    observed = np.bincount(d[inside] @ np.array([9, 1]), minlength=81)
    cells = itertools.product(range(-4, 5), repeat=2)
    probs = np.array([fdd_probability(p, FddQuery(2, c), 1e-12)[0] for c in cells])
    # d_-1 = d_0 + 1 maps both positions to one value
    assert not observed[probs == 0.0].any()
    keep = probs * n_draws >= 5.0
    counts = np.append(observed[keep], n_draws - observed[keep].sum())
    expected = np.append(probs[keep], 1.0 - probs[keep].sum()) * n_draws
    stat = chi2_stat(counts, expected)
    thr = chi2_threshold(len(counts) - 1)
    assert stat < thr, f"chi2 {stat:.2f} >= {thr:.2f}"


@pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
def test_inversion_kernel_keeps_the_value_order_at_any_eps(q):
    # chains stopped early miss left inversions but keep the order of the
    # values, so even a loose eps_tv never collides
    p = QParam(q)
    for seed in range(1, 21):
        exact, _ = batch_inversion_windows(-5, 5, p, GeomStream(seed=seed, q=q), 1, 1e-12)
        for eps_tv in (0.5, 0.99, 1e3):
            loose, _ = batch_inversion_windows(-5, 5, p, GeomStream(seed=seed, q=q), 1, eps_tv)
            assert len(set(loose[0].tolist())) == 11
            assert np.argsort(loose[0]).tolist() == np.argsort(exact[0]).tolist()
    rows, _ = batch_inversion_windows(-5, 5, p, GeomStream(seed=0, q=q), 2000, 0.5)
    assert np.all(np.diff(np.sort(rows, axis=1), axis=1) > 0)


@pytest.mark.parametrize(
    "lo, hi, count, eps_tv",
    [(1, 0, 5, 1e-9), (0, 2, -1, 1e-9), (0, 2, 5, 0.0), (0, 2, 5, -1e-9),
     (0, 2, 5, math.nan), (0, 2, 5, math.inf), (0, 2, 5, 5e-324),
     (2**62 - 2, 2**62 + 1, 5, 1e-9), (-(2**62) - 1, 0, 5, 1e-9),
     (2**63 - 8, 2**63 - 2, 3, 1e-9), (-(2**63), -(2**63) + 8, 3, 1e-9)],
)
def test_inversion_kernel_refusals_draw_nothing(lo, hi, count, eps_tv):
    s = GeomStream(seed=0, q=0.5)
    with pytest.raises(DomainError):
        batch_inversion_windows(lo, hi, P5, s, count, eps_tv)
    assert s.counter == 0


@pytest.mark.parametrize("lo", [2**62 - 4, -(2**62)])
def test_inversion_kernel_at_the_window_limit_is_a_shifted_window(lo):
    # the draws do not depend on where the window lies, so a window at
    # +-2^62 holds the values of [0..4] shifted, none of them wrapped
    here, ell = batch_inversion_windows(lo, lo + 4, P5, GeomStream(seed=3, q=0.5), 50, 1e-9)
    there, ell0 = batch_inversion_windows(0, 4, P5, GeomStream(seed=3, q=0.5), 50, 1e-9)
    assert (here - lo).tolist() == there.tolist() and ell.tolist() == ell0.tolist()


@pytest.mark.parametrize("lo, hi, q, count, eps_tv", [
    (-5, 5, 0.5, 0, 1e-9), (-5, 5, 0.5, 300, 10.0), (-5, 5, 0.5, 300, 0.5),
    (0, 0, 0.5, 5000, 1e-6), (0, 63, 0.8, 300, 1e-6), (-3, 3, 0.99, 50, 1e-6)])
def test_inversion_kernel_draws_what_its_rounds_need(lo, hi, q, count, eps_tv):
    # read back from the outputs: r = values - positions + ell, the in-window
    # left counts are those of _leftward_chains(r), and the rest of a row's
    # lowest chains' left counts are their hits; a row whose lowest state
    # low0 is below x* draws x* - low0 steps plus those hits
    s = GeomStream(seed=5, q=q)
    values, ell = batch_inversion_windows(lo, hi, QParam(q), s, count, eps_tv)
    width = hi - lo + 1
    r = values - np.arange(lo, hi + 1) + ell
    x = _leftward_chains(r)
    hits = ell - (np.arange(width) - (x - r))
    low = x.min(axis=1, initial=np.iinfo(np.int64).max)
    lowest = x == low[:, None]
    row_hits = np.where(lowest, hits, 0).max(axis=1, initial=0)
    assert np.all(hits >= 0) and np.all(hits[lowest] == np.repeat(row_hits, lowest.sum(axis=1)))
    xstar = _chain_horizon(q, eps_tv)
    drawing = low < xstar
    assert not row_hits[~drawing].any()
    assert s.counter == count * width + int((xstar - low + row_hits)[drawing].sum())


def test_inversion_kernel_count_zero():
    s = GeomStream(seed=0, q=0.5)
    values, ell = batch_inversion_windows(-2, 2, P5, s, 0, 1e-9)
    assert values.shape == ell.shape == (0, 5)
    assert s.counter == 0


# --------------------------------------------------------------------------
# stream spawning
# --------------------------------------------------------------------------

def test_spawn_independent_of_parent_consumption():
    parent_a = GeomStream(seed=5, q=0.5)
    child_a = parent_a.spawn("worker")
    for _ in range(100):
        parent_a.uniform()  # consume the parent heavily
    parent_b = GeomStream(seed=5, q=0.5)
    child_b = parent_b.spawn("worker")
    assert [child_a.uniform() for _ in range(10)] == [
        child_b.uniform() for _ in range(10)
    ]


def test_spawn_labels_separate_streams():
    s = GeomStream(seed=5, q=0.5)
    xs = [s.spawn("a").uniform(), s.spawn("b").uniform(), s.spawn("c").uniform()]
    assert len(set(xs)) == 3


# --------------------------------------------------------------------------
# batch kernels
# --------------------------------------------------------------------------

def test_batch_finite_r_support_and_round_trip():
    s = GeomStream(seed=61, q=0.5)
    mat = batch_finite_r(5, P5, s, 1_000)
    assert mat.shape == (1_000, 5)
    for i in range(5):
        assert mat[:, i].min() >= 0
        assert mat[:, i].max() <= 5 - i - 1
    codes = finite_r_codes(mat)
    for row, code in zip(mat[:50], codes[:50]):
        assert finite_code_to_r(int(code), 5) == tuple(int(v) for v in row)


def test_batch_finite_r_matches_scalar_law():
    # same pmf as the scalar sampler (cross-check via the n=3 brute force)
    q = 0.5
    n_draws = 30_000
    s = GeomStream(seed=67, q=q)
    mat = batch_finite_r(3, QParam(q), s, n_draws)
    codes = np.asarray(finite_r_codes(mat))
    pmf = oracles.brute_pmf(3, q)
    from mallows.perm import eliminate_right

    expected = np.zeros(6)
    for code in range(6):
        word = eliminate_right(finite_code_to_r(code, 3)).values
        expected[code] = pmf[word] * n_draws
    counts = np.bincount(codes, minlength=6)
    stat = chi2_stat(counts, expected)
    thr = chi2_threshold(5)
    assert stat < thr, f"chi2 {stat:.2f} >= {thr:.2f}"


WORD_KERNELS = [
    (batch_finite_words, lambda n, p, s: sample_finite_mallows(n, p, s).values),
    (batch_shuffle_prefixes, q_shuffle_prefix),
]


@pytest.mark.parametrize("kernel, scalar", WORD_KERNELS)
@pytest.mark.parametrize("q", [0.05, 0.5, 0.95])
def test_word_kernels_are_successive_scalar_calls(kernel, scalar, q):
    p = QParam(q)
    for n, count, seed in itertools.product((1, 3, 20, 100), (0, 1, 7), (1, 2, 3)):
        a, b = GeomStream(seed, q), GeomStream(seed, q)
        words = kernel(n, p, a, count)
        assert words.shape == (count, n) and words.dtype == np.int64
        assert [tuple(w) for w in words.tolist()] == [scalar(n, p, b) for _ in range(count)]
        assert a.counter == b.counter, f"n={n} count={count} seed={seed}"


@pytest.mark.parametrize("kernel", [k for k, _ in WORD_KERNELS])
def test_word_kernel_refusals_draw_nothing(kernel):
    for n, count, q in ((0, 5, 0.5), (-2, 5, 0.5), (4, -1, 0.5), (4, 5, 0.3)):
        s = GeomStream(seed=0, q=q)
        with pytest.raises(DomainError):
            kernel(n, P5, s, count)
        assert s.counter == 0


def test_truncated_geometrics_array_limit_is_the_scalar_draw():
    # one limit per draw, up to where q**(limit+1) needs many bits of pow,
    # against the inverse CDF of the same uniforms one Python float at a time
    def inverse_cdf(u, limit, q):
        return min(limit, int(math.log(1.0 - u * (1.0 - q ** (limit + 1))) / math.log(q)))

    for q in (0.05, 0.5, 0.999):
        limits = np.arange(1, 301).repeat(3)
        a, b = GeomStream(seed=11, q=q), GeomStream(seed=11, q=q)
        got = a.truncated_geometrics(limits.size, limits)
        u = b.uniforms(limits.size).tolist()
        assert got.tolist() == [inverse_cdf(v, k, q) for v, k in zip(u, limits.tolist())]
        got = a.truncated_geometrics(50, 7)
        assert got.tolist() == [inverse_cdf(v, 7, q) for v in b.uniforms(50).tolist()]
        assert a.counter == b.counter
    s = GeomStream(seed=0, q=0.5)
    for n, limits in ((3, np.array([2, 0, 1])), (2, np.array([1, 1, 1])), (1, np.array([[1]]))):
        with pytest.raises(DomainError):
            s.truncated_geometrics(n, limits)
    assert s.counter == 0
    assert s.truncated_geometrics(0, np.zeros(0, dtype=np.int64)).size == 0


RATIOS = (1e-300, 1e-12, 0.5, 0.999999, 1.0 - 2.0**-53)


@pytest.mark.parametrize("r", RATIOS)
def test_stream_draws_are_the_floor_of_the_twin_quotients(r):
    # the in-place draws against floor(log U / log r) and the truncated
    # inverse CDF, computed with np.floor from a twin stream's uniforms U
    a, b = GeomStream(seed=13, q=r), GeomStream(seed=13, q=r)
    got = a.geometrics(1000)
    want = np.floor(np.log(b.uniforms(1000)) / math.log(r)).astype(np.int64)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert a.counter == b.counter == 1000
    for limit in (40, np.arange(1, 1001)):
        got = a.truncated_geometrics(1000, limit)
        u = b.uniforms(1000)
        want = np.floor(np.log(1.0 - u * (1.0 - r ** (limit + 1))) / math.log(r))
        assert np.array_equal(got, np.minimum(want.astype(np.int64), limit))
    assert a.counter == b.counter == 3000
    for empty in (a.geometrics(0), a.geometrics(0, np.zeros(0)), a.truncated_geometrics(0, 40),
                  a.truncated_geometrics(0, np.zeros(0, dtype=np.int64))):
        assert empty.shape == (0,) and empty.dtype == np.int64
    assert a.counter == 3000


def test_truncated_geometrics_cap_a_uniform_of_one_at_the_limit():
    # U = 1 (a generator draw of 0.0) where q^(limit+1) is below 2^-53
    # makes log(1 - U * (1 - q^(limit+1))) = -inf; the draw is the limit,
    # not the int64 cast of +inf, and the log of 0 warns nothing (the
    # suite's filterwarnings turns a RuntimeWarning into an error)
    class Zeros:
        def random(self, n):
            return np.zeros(n)

    s = GeomStream(seed=0, q=0.5)
    s._gen = Zeros()
    assert s.truncated_geometrics(2, 60).tolist() == [60, 60]
    assert s.truncated_geometrics(3, np.array([60, 70, 5])).tolist() == [60, 70, 5]
    assert s.truncated_geometrics(2, 10).tolist() == [10, 10]
    assert s.geometrics(2).tolist() == [0, 0]
    assert s.counter == 9
    s = GeomStream(seed=0, q=0.01)
    s._gen = Zeros()
    assert s.truncated_geometrics(5, 20).tolist() == [20] * 5
    assert s.counter == 5


def test_geometrics_with_one_ratio_per_draw_are_the_floor_of_the_twin_quotients():
    ratios = np.tile(RATIOS, 200)
    a, b = GeomStream(seed=17, q=0.5), GeomStream(seed=17, q=0.5)
    got = a.geometrics(ratios.size, ratios)
    want = np.floor(np.log(b.uniforms(ratios.size)) / np.log(ratios)).astype(np.int64)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert a.counter == b.counter == ratios.size


def test_batch_interlacing_matches_displacement_pmf():
    q = 0.5
    n_draws = 100_000
    s = GeomStream(seed=71, q=q)
    windows = batch_interlacing_windows(0, 0, QParam(q), s, n_draws)
    d = windows[:, 0]  # displacement at the origin
    pmf = displacement_pmf(QParam(q), radius=8)
    for disp in range(-4, 5):
        p_d = pmf.prob(disp)
        observed = int((d == disp).sum())
        z = (observed - n_draws * p_d) / np.sqrt(n_draws * p_d * (1 - p_d))
        assert abs(z) < SIGMA_BOUND, f"d={disp}: z = {z:.2f}"


def test_batch_interlacing_rows_are_windows():
    s = GeomStream(seed=73, q=0.5)
    windows = batch_interlacing_windows(-3, 3, P5, s, 2_000)
    assert windows.shape == (2_000, 7)
    for row in windows[:200]:
        assert len(set(int(v) for v in row)) == 7


def test_batch_interlacing_blocks_make_no_scalar_draw():
    # 5,000 rows are three blocks; at q=0.95 rows need many letters, and
    # every draw must still come from the vector calls
    class CountingStream(GeomStream):
        scalar = 0

        def uniform(self):
            self.scalar += 1
            return super().uniform()

    s = CountingStream(seed=109, q=0.95)
    windows = batch_interlacing_windows(0, 2, QParam(0.95), s, 5_000)
    assert windows.shape == (5_000, 3)
    assert s.scalar == 0
    assert all(len(set(row.tolist())) == 3 for row in windows)


def test_batch_interlacing_rejects_negative_count():
    s = GeomStream(seed=0, q=0.5)
    with pytest.raises(DomainError):
        batch_interlacing_windows(0, 2, P5, s, -1)
    assert s.counter == 0


@pytest.mark.parametrize(
    "lo, hi, q",
    [(-5, 5, 0.5), (0, 0, 0.5), (0, 2, 0.95), (-40, 40, 0.8), (5, 5, 0.97), (-60, -50, 0.6),
     (50, 60, 0.5), (0, 2, 0.99)],
)
def test_scalar_interlacing_is_the_kernel_at_count_one(lo, hi, q):
    p = QParam(q)
    for seed in range(40):
        a, b = GeomStream(seed=seed, q=q), GeomStream(seed=seed, q=q)
        window = sample_two_sided_interlacing(lo, hi, p, a)
        assert batch_interlacing_windows(lo, hi, p, b, 1)[0].tolist() == list(window.values)
        assert a.counter == b.counter


def test_batch_inversion_rejects_negative_count():
    s = GeomStream(seed=0, q=0.5)
    with pytest.raises(DomainError):
        batch_inversion_position0(P5, s, -1, 1e-6)
    assert s.counter == 0


def test_stream_refuses_negative_sizes_without_counting():
    s = GeomStream(seed=0, q=0.5)
    s.uniforms(4)
    for draw in (s.uniforms, s.geometrics, lambda n: s.truncated_geometrics(n, 3),
                 lambda n: s.truncated_geometrics(n, 0)):
        with pytest.raises(DomainError):
            draw(-1)
        assert s.counter == 4


@pytest.mark.parametrize("i", [0, -3, 4])
def test_scalar_interlacing_matches_displacement_pmf(i):
    # a - slot at i takes w- letter C(i) + 1 and C(i) = #(+ <= i) - i >= -i,
    # so at i = -3 the law check reaches the fourth w- letter and beyond
    q = 0.5
    n_draws = 20_000
    s = GeomStream(seed=79, q=q)
    pmf = displacement_pmf(QParam(q), radius=8)
    counts = {d: 0 for d in range(-3, 4)}
    for _ in range(n_draws):
        d = sample_two_sided_interlacing(i, i, QParam(q), s).values[0] - i
        if -3 <= d <= 3:
            counts[d] += 1
    for disp in range(-3, 4):
        p_d = pmf.prob(disp)
        z = (counts[disp] - n_draws * p_d) / np.sqrt(n_draws * p_d * (1 - p_d))
        assert abs(z) < SIGMA_BOUND, f"d={disp}: z = {z:.2f}"


def test_batch_inversion_position0_law():
    q = 0.5
    n_draws = 100_000
    s = GeomStream(seed=83, q=q)
    d0, ell0 = batch_inversion_position0(QParam(q), s, n_draws, 1e-6)
    assert d0.shape == ell0.shape == (n_draws,)
    assert ell0.min() >= 0

    # marginal of the left count is geometric(q)
    counts = np.bincount(np.minimum(ell0, 9), minlength=10)
    probs = [(1 - q) * q**k for k in range(9)]
    probs.append(1.0 - sum(probs))
    stat = chi2_stat(counts, np.array(probs) * n_draws)
    thr = chi2_threshold(9)
    assert stat < thr, f"chi2 {stat:.2f} >= {thr:.2f}"

    # mean left count q/(1-q); geometric variance q/(1-q)^2
    mean = q / (1 - q)
    se = np.sqrt(q / (1 - q) ** 2 / n_draws)
    z = (ell0.mean() - mean) / se
    assert abs(z) < SIGMA_BOUND, f"mean ell z = {z:.2f}"


def test_batch_inversion_matches_displacement_pmf():
    q = 0.5
    n_draws = 100_000
    s = GeomStream(seed=89, q=q)
    d0, _ = batch_inversion_position0(QParam(q), s, n_draws, 1e-6)
    pmf = displacement_pmf(QParam(q), radius=8)
    for disp in range(-4, 5):
        p_d = pmf.prob(disp)
        observed = int((d0 == disp).sum())
        z = (observed - n_draws * p_d) / np.sqrt(n_draws * p_d * (1 - p_d))
        assert abs(z) < SIGMA_BOUND, f"d={disp}: z = {z:.2f}"
