"""Exactness and determinism checks for the scalar and batch samplers."""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter

import numpy as np
import pytest
from scipy import stats

import oracles
from oracles import finite_code_to_r
from mallows import qseries, samplers
from mallows.dist import FddQuery, conditional_l_given_r, displacement_pmf, fdd_probability
from mallows.errors import DomainError
from mallows.perm import _leftward_chains, _pop_letters
from mallows.qseries import QParam, _horizon, euler_table, log_table, pochhammer_table
from mallows.samplers import (
    YoungDiagram,
    _diagram_triples,
    _plus_positions,
    _sign_counts,
    _tail_hits,
    batch_finite_r,
    batch_finite_words,
    batch_interlacing_windows,
    batch_inversion_position0,
    batch_inversion_windows,
    batch_shuffle_prefixes,
    finite_r_codes,
    q_shuffle_prefix,
    sample_finite_mallows,
    sample_two_sided_interlacing,
    sample_two_sided_inversion,
    sample_young_euler,
)
from mallows.streams import GeomStream, _geometrics_of_logs, _philox_key
from mallows.verify import chi_square_case

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
    limits = np.full(1, limit)
    for _ in range(n):
        k = int(s.truncated_geometrics(limits)[0])
        assert 0 <= k <= limit
        counts[k] += 1
    norm = (1.0 - 0.5 ** (limit + 1)) / (1.0 - 0.5)
    expected = np.array([0.5**k / norm for k in range(limit + 1)]) * n
    stat = chi2_stat(counts, expected)
    thr = chi2_threshold(limit)
    assert stat < thr, f"chi2 {stat:.2f} >= {thr:.2f}"


def test_truncated_geometric_limit_zero_consumes_nothing():
    # a limit-0 draw has one outcome: the array form refuses it, and an
    # empty draw takes no uniform (batch_finite_r's last column draws none)
    a = GeomStream(seed=7, q=0.5)
    b = GeomStream(seed=7, q=0.5)
    for _ in range(5):
        with pytest.raises(DomainError):
            a.truncated_geometrics(np.zeros(1, dtype=np.int64))
        assert a.truncated_geometrics(np.zeros(0, dtype=np.int64)).tolist() == []
    assert a.counter == 0
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
    poch_inf = pochhammer_table(QParam(q))[-1]

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
    """Ratio q; every uniform is u.  The search's uniforms and the
    multiplicities' alternate, a search first, so it counts them apart:
    calls counts the search uniforms and fails once they pass limit, so a
    search that does not end fails instead of hanging; mults counts the
    multiplicity uniforms."""

    def __init__(self, q, u, limit):
        self.q, self.u, self.limit, self.calls, self.mults = q, u, limit, 0, 0

    def uniform(self):
        if self.calls > self.mults:
            self.mults += 1
        else:
            self.calls += 1
            assert self.calls <= self.limit, "the part search did not end"
        return self.u


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.8, 0.95, 0.99])
@pytest.mark.parametrize("u", [1.0, 1.0 - 2.0**-53, 2.0**-53])
def test_young_multiplicities_stop_at_float_saturation(q, u):
    # U = 1 asks for a part wherever -log <j>_q still grows, up to where
    # its terms no longer move the sum; the search must end there, inside
    # the table
    neg = euler_table(q)[0]
    s = _ConstantStream(q, u, limit=neg.size)
    parts = sample_young_euler(QParam(q), s).parts
    sizes = set(parts)
    # one uniform per distinct part size, found once each, and one that ends;
    # one multiplicity uniform per distinct part size
    assert len(sizes) == s.calls - 1 == s.mults
    assert all(1 <= j < neg.size for j in sizes)
    if u > 0.5:
        # every geometric is 0: each size has multiplicity 1
        assert len(parts) == len(sizes)
    if u == 1.0:
        assert sizes == {j for j in range(1, neg.size) if neg[j] > neg[j - 1]}


def _assert_size_law(sizes, q):
    # P(lambda = empty) = <inf>_q, checked by both binomial tails, and
    # E|lambda| = sum_k k q^k / (1 - q^k)
    n = sizes.size
    p_empty = pochhammer_table(QParam(q))[-1]
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


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99, 0.997])
def test_young_sampler_is_the_diagram_search_at_one_row(q):
    # the scalar search and the kernel's rounds take the same uniforms in
    # the same order, and the same quotient log U / log q^j per multiplicity
    p = QParam(q)
    tables = euler_table(q)
    for seed in range(200):
        a, b = GeomStream(seed, q), GeomStream(seed, q)
        parts = sample_young_euler(p, a).parts
        _, part, mult = _diagram_triples(b, 1, *tables)
        assert parts == tuple(int(j) for j, m in zip(part, mult) for _ in range(m)), seed
        assert a.counter == b.counter, seed


@pytest.mark.parametrize("q", [0.95, 0.99])
def test_diagram_triples_deep_diagram_law(q):
    rows = 20_000
    tables = euler_table(q)
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
    tables = euler_table(0.95)
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


def _cascade_replay(lo, hi, p, s, eps_tv):
    """Window by one oracles.left_walk chain per position.  The right counts
    come first; then a scalar part search from the lowest in-window state up
    to the horizon finds the lowest chain's tail hits, and one overshoot is
    drawn per hit.  From these one sequence of right counts left of the
    window is made, zeros up to the state y = J - 1 of each part J and then
    a hit y + 1 + overshoot for each of its multiplicity, and every chain
    walks it."""
    q, xstar = p.q, _horizon(p.q, eps_tv)
    r = s.geometrics(hi - lo + 1).tolist()
    walks = [oracles.left_walk(r[:k][::-1], rj) for k, rj in enumerate(r)]
    low = min(x for _, x in walks)
    # -log <j>_q for j = 0..x*
    neg = list(itertools.accumulate((-math.log1p(-q**k) for k in range(1, xstar + 1)),
                                    initial=0.0))
    parts = []  # (part J, multiplicity), J increasing
    b = low if low < xstar else None
    while b is not None:
        e = neg[b] - math.log(s.uniform())
        b = next((j for j in range(b + 1, xstar + 1) if neg[j] > e), None)
        if b is not None:
            parts.append((b, 1 + int(np.log(s.uniforms(1))[0] / math.log(q**b))))
    tail, y = [], low
    for j, mult in parts:
        tail += [0] * (j - 1 - y) + [j + int(s.geometrics(1)[0]) for _ in range(mult)]
        y = j - 1
    return [lo + k + rj - ell - oracles.left_walk(tail, x)[0]
            for k, (rj, (ell, x)) in enumerate(zip(r, walks))]


@pytest.mark.parametrize("q", [0.05, 0.3, 0.8, 0.95])
@pytest.mark.parametrize("eps_tv", [1e-3, 1e-9])
def test_inversion_kernel_at_count_one_is_the_cascade_replay(q, eps_tv):
    _assert_kernel_is_cascade_replay(q, eps_tv)


@pytest.mark.parametrize("eps_tv", [2.0**-28, 2.0**-30])
def test_inversion_kernel_searches_to_the_horizon_at_boundary_eps(eps_tv):
    # q^(x+1)/(1-q) meets eps_tv exactly at some state x; the replay's
    # search goes up to that part, and so must the kernel's
    _assert_kernel_is_cascade_replay(0.5, eps_tv)


def _assert_kernel_is_cascade_replay(q, eps_tv):
    p = QParam(q)
    for lo, hi in ((-5, 5), (0, 0), (3, 9), (-12, 12)):
        for seed in range(1, 6):
            a, b = GeomStream(seed=seed, q=q), GeomStream(seed=seed, q=q)
            for _ in range(3):
                values, ell = batch_inversion_windows(lo, hi, p, a, 1, eps_tv)
                assert values.shape == ell.shape == (1, hi - lo + 1)
                assert values[0].tolist() == _cascade_replay(lo, hi, p, b, eps_tv)
                assert a.counter == b.counter
    s = GeomStream(seed=7, q=q)
    w = sample_two_sided_inversion(-5, 5, p, s, eps_tv)
    assert list(w.values) == _cascade_replay(-5, 5, p, GeomStream(seed=7, q=q), eps_tv)


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
    # a shallower tail search drops the parts above x* but keeps the order
    # of the values, so even a loose eps_tv never collides
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


def test_inversion_kernel_refuses_a_tail_table_past_max_table(monkeypatch):
    # at q=0.999999 and eps_tv=1e-9 the search would go 3.4e7 parts deep
    def build(q, n_max):
        raise AssertionError("no q-series table is built")

    monkeypatch.setattr(qseries, "_build_table", build)
    s = GeomStream(seed=0, q=0.999999)
    with pytest.raises(DomainError, match="MAX_TABLE"):
        batch_inversion_windows(0, 0, QParam(0.999999), s, 5, 1e-9)
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
def test_inversion_kernel_draws_what_its_cascade_needs(lo, hi, q, count, eps_tv):
    # read back from the outputs: r = values - positions + ell, the in-window
    # left counts are those of _leftward_chains(r), and the rest are tail
    # hits; a row's lowest chains share its L1 hits, one overshoot each, and
    # a row whose lowest state low is below x* finds D distinct parts in
    # (low, x*], drawing one uniform and one multiplicity per part and one
    # uniform that ends the search: 2D + 1 draws
    s = GeomStream(seed=5, q=q)
    values, ell = batch_inversion_windows(lo, hi, QParam(q), s, count, eps_tv)
    width = hi - lo + 1
    r = values - np.arange(lo, hi + 1) + ell
    x = _leftward_chains(r)
    hits = ell - (np.arange(width) - (x - r))
    low = x.min(axis=1, initial=np.iinfo(np.int64).max)
    lowest = x == low[:, None]
    l1 = np.where(lowest, hits, 0).max(axis=1, initial=0)
    assert np.all(hits >= 0) and np.all(hits <= l1[:, None])
    assert np.all(hits[lowest] == np.repeat(l1, lowest.sum(axis=1)))
    xstar = _horizon(q, eps_tv)
    searching = low < xstar
    assert not l1[~searching].any()
    search = s.counter - count * width - int(l1.sum()) - int(searching.sum())
    assert search % 2 == 0
    parts = search // 2  # the sum of D over the rows
    assert np.count_nonzero(l1) <= parts <= int(np.minimum(l1, xstar - low)[searching].sum())


@pytest.mark.parametrize("q, rs", [(0.3, (0, 1, 2)), (0.8, (0, 2, 5))])
def test_inversion_tail_is_the_conditional_left_count_law(q, rs):
    # on [0..0] the left count is the tail alone: given r_0 = r, the number
    # of parts above r of an Euler-measure diagram
    p = QParam(q)
    d0, ell0 = batch_inversion_position0(p, GeomStream(seed=101, q=q), 50_000, 1e-9)
    for r in rs:
        ell = ell0[d0 + ell0 == r]
        top = int(ell.max()) + 1
        probs = np.array([conditional_l_given_r(p, r, k) for k in range(top)])
        observed = np.bincount(ell, minlength=top + 1).astype(float)
        case = chi_square_case(f"r={r}", observed, np.append(probs, max(1.0 - probs.sum(), 0.0)))
        assert case.passed, case


def test_inversion_kernel_answers_at_q_0999():
    # the tail table is a sum of logs, so nothing underflows near q = 1; the
    # left count at 0 has mean q/(1-q) = 999
    q, n_draws = 0.999, 2000
    _, ell0 = batch_inversion_position0(QParam(q), GeomStream(seed=103, q=q), n_draws, 1e-9)
    z = (ell0.mean() - q / (1 - q)) / (ell0.std(ddof=1) / math.sqrt(n_draws))
    assert abs(z) < 4.0, f"mean ell z = {z:.2f}"


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


def _philox_state(bits) -> dict:
    state = bits.state
    return {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
            "buffer": state["buffer"].tolist()}


@pytest.mark.parametrize("seed", [0, 5, 2**64 + 3, -7])
@pytest.mark.parametrize("label", ["worker", 3])
def test_stream_philox_is_the_keyed_philox_state_for_state(seed, label):
    # a stream's Philox is built without a SeedSequence and then keyed: its
    # state is what Philox(key=...) leaves, before and after draws and skips
    root = GeomStream(seed=seed, q=0.5)
    for s, name in ((root, "root"), (root.spawn(label), f"root/{label}"),
                    (root.spawn("b").spawn(label), f"root/b/{label}")):
        keyed = GeomStream(seed=seed, q=0.5)
        keyed._gen = np.random.Generator(np.random.Philox(key=_philox_key(seed, name)))
        for step in (lambda t: None, lambda t: t.uniforms(5), lambda t: t.skip(7)):
            step(s)
            step(keyed)
            assert _philox_state(s._gen.bit_generator) == _philox_state(keyed._gen.bit_generator)


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


def test_finite_r_code_is_the_lexicographic_rank_of_its_word():
    # the Lehmer code: the finite-oracle suite reads the oracle's
    # probabilities, in lexicographic word order, as the codes' cells
    from mallows.perm import eliminate_right

    for n in range(1, 7):
        rs = [finite_code_to_r(c, n) for c in range(math.factorial(n))]
        assert finite_r_codes(np.array(rs)).tolist() == list(range(len(rs)))
        words = [eliminate_right(r).values for r in rs]
        assert words == list(itertools.permutations(range(1, n + 1))), n


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
        got = a.truncated_geometrics(limits)
        u = b.uniforms(limits.size).tolist()
        assert got.tolist() == [inverse_cdf(v, k, q) for v, k in zip(u, limits.tolist())]
        got = a.truncated_geometrics(np.full(50, 7))
        assert got.tolist() == [inverse_cdf(v, 7, q) for v in b.uniforms(50).tolist()]
        assert a.counter == b.counter
    s = GeomStream(seed=0, q=0.5)
    for limits in (np.array([2, 0, 1]), np.array([[1]]), np.array([1.5, 2.5, 3.5]),
                   np.full(3, True), 5):
        with pytest.raises(DomainError):
            s.truncated_geometrics(limits)
    assert s.counter == 0
    assert s.truncated_geometrics(np.zeros(0, dtype=np.int64)).size == 0


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
    for limit in (np.full(1000, 40), np.arange(1, 1001)):
        got = a.truncated_geometrics(limit)
        u = b.uniforms(1000)
        want = np.floor(np.log(1.0 - u * (1.0 - r ** (limit + 1))) / math.log(r))
        assert np.array_equal(got, np.minimum(want.astype(np.int64), limit))
    assert a.counter == b.counter == 3000
    for empty in (a.geometrics(0), _geometrics_of_logs(np.log(a.uniforms(0)), np.log(np.zeros(0))),
                  a.truncated_geometrics(np.full(0, 40)),
                  a.truncated_geometrics(np.zeros(0, dtype=np.int64))):
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
    assert s.truncated_geometrics(np.full(2, 60)).tolist() == [60, 60]
    assert s.truncated_geometrics(np.array([60, 70, 5])).tolist() == [60, 70, 5]
    assert s.truncated_geometrics(np.full(2, 10)).tolist() == [10, 10]
    assert s.geometrics(2).tolist() == [0, 0]
    assert s.counter == 9
    s = GeomStream(seed=0, q=0.01)
    s._gen = Zeros()
    assert s.truncated_geometrics(np.full(5, 20)).tolist() == [20] * 5
    assert s.counter == 5


def test_geometrics_with_one_ratio_per_draw_are_the_floor_of_the_twin_quotients():
    # the part searches' multiplicities: the inverse CDF on logs taken by
    # the caller, ratio q^j per draw
    ratios = np.tile(RATIOS, 200)
    a, b = GeomStream(seed=17, q=0.5), GeomStream(seed=17, q=0.5)
    got = _geometrics_of_logs(np.log(a.uniforms(ratios.size)), np.log(ratios))
    want = np.floor(np.log(b.uniforms(ratios.size)) / np.log(ratios)).astype(np.int64)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert a.counter == b.counter == ratios.size


@pytest.mark.parametrize("a, b", [(0, 5), (7, 0), (3, 3), (2049, 1)])
def test_uniform_calls_in_a_row_are_one_call_for_their_sum(a, b):
    # the part searches draw a round's multiplicities and the next round's
    # search uniforms in one call on this property
    one, two = GeomStream(seed=19, q=0.5), GeomStream(seed=19, q=0.5)
    split = np.concatenate((one.uniforms(a), one.uniforms(b)))
    assert split.tobytes() == two.uniforms(a + b).tobytes()
    assert one.counter == two.counter == a + b
    assert np.array_equal(one.uniforms(4), two.uniforms(4))


@pytest.mark.parametrize("before", range(9))
def test_skip_leaves_the_stream_where_the_uniforms_would(before):
    # Philox keeps the rest of a four-word counter step: 0-8 prior draws
    # leave every buffer position, and n covers the kept words, whole
    # steps, the 0-3 words left over and a pool-sized skip
    for n in (*range(10), 15, 16, 17, 6727):
        drawn, skipped = GeomStream(seed=37, q=0.5), GeomStream(seed=37, q=0.5)
        drawn.uniforms(before)
        skipped.uniforms(before)
        drawn.uniforms(n)
        skipped.skip(n)
        assert skipped.counter == drawn.counter == before + n
        assert skipped.uniforms(13).tobytes() == drawn.uniforms(13).tobytes()
        assert np.array_equal(skipped.geometrics(5), drawn.geometrics(5))


def test_kernels_at_q_near_zero_draw_the_identity_by_one_empty_search_round():
    # every diagram is empty and every right count 0, so each row's part
    # search runs one round that finds no part: one search uniform per row,
    # no multiplicity and (inversion) no overshoot; interlacing then draws
    # kmax = 3 plus and C(-4) = 4 minus letters a row
    q, lo, hi, count = 1e-9, -3, 3, 2049
    p = QParam(q)
    identity = np.tile(np.arange(lo, hi + 1), (count, 1))
    s = GeomStream(seed=23, q=q)
    assert np.array_equal(batch_interlacing_windows(lo, hi, p, s, count), identity)
    assert s.counter == count * (1 + 7)
    assert _horizon(q, 1e-9) == 1
    s = GeomStream(seed=23, q=q)
    values, ell = batch_inversion_windows(lo, hi, p, s, count, 1e-9)
    assert np.array_equal(values, identity) and ell.shape == values.shape and not ell.any()
    assert s.counter == count * (hi - lo + 1) + count
    for kernel, scalar in ((lambda s: batch_interlacing_windows(lo, hi, p, s, 1),
                            lambda s: sample_two_sided_interlacing(lo, hi, p, s)),
                           (lambda s: batch_inversion_windows(lo, hi, p, s, 1, 1e-9)[0],
                            lambda s: sample_two_sided_inversion(lo, hi, p, s, 1e-9))):
        a, b = GeomStream(seed=29, q=q), GeomStream(seed=29, q=q)
        assert kernel(a)[0].tolist() == list(scalar(b).values) == list(range(lo, hi + 1))
        assert a.counter == b.counter


@pytest.mark.parametrize("lo, hi", [(0, 0), (-5, 5)])
def test_inversion_kernel_with_no_row_searching_draws_only_right_counts(lo, hi):
    # eps_tv = 10 sets the horizon x* = 0, which no in-window state is below,
    # so no row searches: no tail hit, no overshoot, and the left counts are
    # the in-window walks
    count, width = 2049, hi - lo + 1
    assert _horizon(0.5, 10.0) == 0
    s, twin = GeomStream(seed=31, q=0.5), GeomStream(seed=31, q=0.5)
    values, ell = batch_inversion_windows(lo, hi, P5, s, count, 10.0)
    r = twin.geometrics(count * width).reshape(count, width).tolist()
    walks = [[oracles.left_walk(row[:k][::-1], rk)[0] for k, rk in enumerate(row)] for row in r]
    assert values.dtype == ell.dtype == np.int64
    assert ell.tolist() == walks
    assert values.tolist() == [[lo + k + rk - e for k, (rk, e) in enumerate(zip(row, w))]
                               for row, w in zip(r, walks)]
    assert s.counter == twin.counter == count * width
    assert np.array_equal(s.uniforms(4), twin.uniforms(4))


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


def _parts_above_replay(s, active, base, neg, log_qpow):
    """_parts_above by scalar rules, as lists of Python ints: each round
    every row still searching (in the order of active) takes one search
    uniform U and finds its next part j = bisect_right(neg, neg[b] - log U)
    above its base b, if j < len(neg); then the m rows that found one take
    one multiplicity uniform each, 1 + int(log U / log q^j), and the next
    round's m search uniforms, in one call under one np.log.  base holds
    one starting base per row of active; the triples come later rounds
    first, as the kernel returns them."""
    neg, log_qpow = neg.tolist(), log_qpow.tolist()
    base = dict(zip(active, base))
    rounds, log_u = [], np.log(s.uniforms(len(active))).tolist()
    while active:
        found = []
        for r, lu in zip(active, log_u):
            j = bisect_right(neg, neg[base[r]] - lu)
            if j < len(neg):
                found.append(r)
                base[r] = j
        m = len(found)
        log_u = np.log(s.uniforms(2 * m))
        rounds.append([(r, base[r], 1 + int(lu / log_qpow[base[r]]))
                       for r, lu in zip(found, log_u[:m].tolist())])
        active, log_u = found, log_u[m:].tolist()
    triples = [t for triples in reversed(rounds) for t in triples]
    return tuple([t[i] for t in triples] for i in range(3))


def _interlacing_block_replay(lo, hi, p, s, rows):
    """One block of batch_interlacing_windows by scalar rules: the rows'
    part searches from part 0 round by round (_parts_above_replay), then
    every row's plus-word skips in row order and every row's minus-word
    skips, each window filled by the rule of sample_two_sided_interlacing."""
    parts = [[] for _ in range(rows)]
    for r, j, m in zip(*_parts_above_replay(s, list(range(rows)), [0] * rows, *euler_table(p.q))):
        parts[r] += [j] * m  # later rounds, so larger parts, first
    plus = [_plus_positions(tuple(x), hi) for x in parts]
    first = [bisect_left(x, lo) for x in plus]
    need = [len(x) for x in plus] + [f - (lo - 1) for f in first]
    skips = s.geometrics(sum(need)).tolist()
    words, at = [], 0
    for n in need:
        words.append(_pop_letters(skips[at : at + n]))
        at += n
    out = []
    for r in range(rows):
        wp, u_word, vals = words[r], words[rows + r], []
        k, t = len(plus[r]) - 1, len(plus[r]) - hi
        for i in range(hi, lo - 1, -1):
            if k >= first[r] and plus[r][k] == i:
                vals.append(wp[k])
                k -= 1
            else:
                vals.append(1 - u_word[t])
                t += 1
        out.append(vals[::-1])
    return out


@pytest.mark.parametrize("lo, hi, q, count", [
    (-5, 5, 0.05, 2049), (0, 0, 0.05, 300), (-40, 40, 0.8, 300), (0, 2, 0.95, 300),
    (3, 9, 0.5, 7), (-9, -4, 0.9, 40)])
def test_interlacing_blocks_are_the_block_replay(lo, hi, q, count):
    # at q=0.05 most diagrams are empty, so most rows leave the search in
    # its first round; the deferred multiplicities of later rounds must
    # still meet their own rows and parts, latest round first
    p = QParam(q)
    a, b = GeomStream(seed=37, q=q), GeomStream(seed=37, q=q)
    got = batch_interlacing_windows(lo, hi, p, a, count)
    want = []
    for b0 in range(0, count, 2048):
        want += _interlacing_block_replay(lo, hi, p, b, min(2048, count - b0))
    assert got.dtype == np.int64 and got.tolist() == want
    assert a.counter == b.counter


@pytest.mark.parametrize("lo, hi, q", [(-5, 5, 0.5), (0, 2, 0.95), (3, 70, 0.3)])
def test_interlacing_kernel_gathers_the_same_letters_by_int64_indices(lo, hi, q, monkeypatch):
    # blocks whose index bound passes _INDEX32_MAX (2^31 or more letter
    # entries) gather by int64; forced here on small blocks
    p = QParam(q)
    narrow = batch_interlacing_windows(lo, hi, p, GeomStream(seed=43, q=q), 2049)
    monkeypatch.setattr(samplers, "_INDEX32_MAX", 0)
    s = GeomStream(seed=43, q=q)
    assert np.array_equal(batch_interlacing_windows(lo, hi, p, s, 2049), narrow)


def _tail_hits_replay(low, q, xstar, s):
    """_tail_hits by scalar rules, summed in Python ints: _parts_above_replay
    from each row's low, over the rows with low below xstar in row order."""
    hits = [0] * len(low)
    active = [r for r in range(len(low)) if low[r] < xstar]
    for r, _, m in zip(*_parts_above_replay(s, active, [low[r] for r in active],
                                             *log_table(q, xstar))):
        hits[r] += m
    return hits


@pytest.mark.parametrize("q, xstar, low", [
    (0.5, 40, list(range(-1, 45)) * 5), (0.95, 400, [0, 1, 399, 400, 401] * 40),
    (0.05, 10, [0] * 300),
    # multiplicities near 2^52 / j: a row's hits pass 2^53, exact as ints
    (1.0 - 2.0**-52, 5, [0, 0, 1, 4, 5])])
def test_tail_hits_are_the_round_replay(q, xstar, low):
    a, b = GeomStream(seed=47, q=q), GeomStream(seed=47, q=q)
    hits = _tail_hits(np.array(low), q, xstar, a)
    assert hits.dtype == np.int64 and hits.tolist() == _tail_hits_replay(low, q, xstar, b)
    assert a.counter == b.counter
    if q > 0.99:
        assert hits.max() > 2**53


class _OnesStream:
    """Every uniform is 1, so log U = 0 and a row's search key is exactly
    neg[base]; counter counts the uniforms drawn."""

    def __init__(self):
        self.counter = 0

    def uniforms(self, n):
        self.counter += n
        return np.ones(n)


@pytest.mark.parametrize("base, triples, draws", [
    (0, ([0, 1, 2, 3] * 2, [2] * 4 + [1] * 4, [1] * 8), 4 + 8 + 8),
    (np.arange(4), ([0, 0, 1], [2, 1, 2], [1, 1, 1]), 4 + 4 + 2)])
def test_part_search_finishes_a_row_whose_target_meets_the_table_end(base, triples, draws):
    # a flat tail: a row at base 2 or 3 has the key 1.0, the table's last
    # entry, which no part exceeds, so it finishes and draws no multiplicity
    neg, log_qpow = np.array([0.0, 0.5, 1.0, 1.0]), np.log(0.5) * np.arange(4)
    a, b = _OnesStream(), _OnesStream()
    got = samplers._parts_above(a, np.arange(4), base, neg, log_qpow)
    want = _parts_above_replay(b, [0, 1, 2, 3], np.broadcast_to(base, 4).tolist(), neg, log_qpow)
    assert all(x.dtype == np.int64 for x in got)
    assert [x.tolist() for x in got] == list(want) == list(triples)
    assert a.counter == b.counter == draws


@pytest.mark.parametrize("q", [0.05, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("rows", [2, 7, 300])
def test_diagram_triples_are_the_round_replay(q, rows):
    # each row's parts and multiplicities, largest part first, and the
    # draws they took, against the round replay from part 0
    a, b = GeomStream(seed=61, q=q), GeomStream(seed=61, q=q)
    tables = euler_table(q)
    row, part, mult = _diagram_triples(a, rows, *tables)
    assert row.dtype == part.dtype == mult.dtype == np.int32
    got, want = [[] for _ in range(rows)], [[] for _ in range(rows)]
    for r, j, m in zip(row.tolist(), part.tolist(), mult.tolist()):
        got[r].append((j, m))
    for r, j, m in zip(*_parts_above_replay(b, list(range(rows)), [0] * rows, *tables)):
        want[r].append((j, m))
    assert got == want
    assert a.counter == b.counter


def test_tail_hits_with_no_row_searching_or_no_rows_draw_nothing():
    # eps_tv = 10 sets x* = 0, which no state is below; an empty block has
    # no rows at all
    xstar = _horizon(0.5, 10.0)
    assert xstar == 0
    s = GeomStream(seed=53, q=0.5)
    hits = _tail_hits(np.array([0, 3, 9]), 0.5, xstar, s)
    assert hits.dtype == np.int64 and hits.tolist() == [0, 0, 0]
    hits = _tail_hits(np.zeros(0, dtype=np.int64), 0.5, 30, s)
    assert hits.dtype == np.int64 and hits.shape == (0,)
    assert s.counter == 0


@pytest.mark.parametrize("q", [0.5, 0.9])
@pytest.mark.parametrize("y", [0, 3, 10])
def test_tail_hits_follow_the_euler_law_above_the_lowest_state(q, y):
    # a chain at state y is hit as often as an Euler-measure diagram has
    # parts above y: none with probability <inf>_q / <y>_q, and
    # sum_{k>y} q^k / (1 - q^k) on average, with both taken from the
    # oracles and not from the table the search reads
    n = 20_000
    hits = _tail_hits(np.full(n, y), q, _horizon(q, 1e-12), GeomStream(seed=59, q=q))
    p_none = oracles.poch_inf(q) / oracles.poch(q, y)
    none = int((hits == 0).sum())
    assert stats.binom.cdf(none, n, p_none) > CHI2_ALPHA
    assert stats.binom.sf(none - 1, n, p_none) > CHI2_ALPHA
    mean = math.fsum(q**k / (1 - q**k) for k in range(y + 1, 2_000))
    z = (hits.mean() - mean) / (hits.std(ddof=1) / np.sqrt(n))
    assert abs(z) < SIGMA_BOUND, f"mean hits z = {z:.2f}"


def test_batch_inversion_rejects_negative_count():
    s = GeomStream(seed=0, q=0.5)
    with pytest.raises(DomainError):
        batch_inversion_position0(P5, s, -1, 1e-6)
    assert s.counter == 0


def test_finite_kernels_name_the_argument_they_refuse():
    # the scalar sampler passes count=1, so it names n alone
    for call, match in [
        (lambda s: sample_finite_mallows(0, P5, s), "n must be >= 1"),
        (lambda s: batch_finite_r(0, P5, s, 3), "n must be >= 1"),
        (lambda s: batch_finite_r(3, P5, s, -1), "count must be >= 0"),
        (lambda s: batch_finite_words(0, P5, s, 3), "n must be >= 1"),
        (lambda s: batch_finite_words(3, P5, s, -1), "count must be >= 0"),
        (lambda s: batch_shuffle_prefixes(0, P5, s, 3), "n must be >= 1"),
        (lambda s: batch_shuffle_prefixes(3, P5, s, -1), "count must be >= 0"),
        (lambda s: batch_shuffle_prefixes(0, P5, s, -1), "n must be >= 1"),
    ]:
        s = GeomStream(seed=0, q=0.5)
        with pytest.raises(DomainError, match=f"^{match}$"):
            call(s)
        assert s.counter == 0


def test_stream_refuses_negative_sizes_without_counting():
    s = GeomStream(seed=0, q=0.5)
    s.uniforms(4)
    # truncated_geometrics takes no count: it draws one per limit
    for draw in (s.uniforms, s.skip, s.geometrics):
        with pytest.raises(DomainError):
            draw(-1)
        assert s.counter == 4


def test_stream_refuses_non_integer_sizes_without_counting():
    # a float count is refused, not truncated; numpy integers pass
    s = GeomStream(seed=0, q=0.5)
    s.uniforms(4)
    for draw in (s.uniforms, s.skip, s.geometrics):
        for n in (2.7, 2.0, "2", None):
            with pytest.raises(DomainError):
                draw(n)
            assert s.counter == 4
    assert s.uniforms(np.int64(3)).size == s.geometrics(np.int32(2)).size + 1
    assert s.truncated_geometrics(np.full(2, 3, dtype=np.int32)).size == 2
    assert s.counter == 11


def test_stream_refuses_a_seed_that_is_not_an_integer():
    # truncating 1.5 to 1 would draw seed 1's stream; numpy integers pass
    for seed in (1.5, 2.9, np.float64(2.0), "3", None):
        with pytest.raises(DomainError, match="seed must be an integer"):
            GeomStream(seed, 0.5)
    for seed in (np.int64(3), np.uint8(3)):
        assert np.array_equal(GeomStream(seed, 0.5).uniforms(8), GeomStream(3, 0.5).uniforms(8))
    assert GeomStream(np.int64(3), 0.5).seed == 3


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
