"""Closed-form laws: displacement, joint counts, fdd events, diagram blocks."""
from __future__ import annotations

import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

import oracles
from mallows import dist
from mallows.dist import (
    FddQuery,
    block_p2,
    conditional_l_given_r,
    displacement_pmf,
    fdd_probability,
    joint_rl_pmf,
)
from mallows.errors import DomainError, TooLargeError
from mallows.oracle import oracle_enumerate
from mallows.qseries import MAX_COMPOSITIONS, QParam, pochhammer_table, q_factorial
from mallows.samplers import (
    batch_interlacing_windows,
    q_shuffle_prefix,
    sample_finite_mallows,
    sample_two_sided_interlacing,
)
from mallows.streams import GeomStream
from mallows.verify import run_suite

P5 = QParam(0.5)
Q_GRID = (0.3, 0.5, 0.8)

# frozen reference values at q = 0.5, reproduced independently in
# tests/oracles.py (diagonal sums / constrained series / finite-model DP)
DISPLACEMENT_HALF = {
    0: 0.220643036097,
    1: 0.169035445855,
    2: 0.103215180483,
    3: 0.056850700525,
}
FDD_FROZEN = {
    (0, 0): 0.0813473137,
    (0, 1): 0.0475835576,
    (-1, 1): 0.0324822696,
    (-2, 3): 0.0059674360,
    (0, 0, 0): 0.0372305098,
}


# --------------------------------------------------------------------------
# displacement pmf
# --------------------------------------------------------------------------

def test_displacement_frozen_values():
    pmf = displacement_pmf(P5, radius=10)
    for d, want in DISPLACEMENT_HALF.items():
        assert pmf.prob(d) == pytest.approx(want, abs=5e-10), f"d={d}"


def test_displacement_symmetry_bit_exact():
    pmf = displacement_pmf(P5, radius=12)
    for d in range(1, 13):
        assert pmf.prob(d) == pmf.prob(-d), f"d={d}"


def test_displacement_tail_bound_and_normalization():
    for q in Q_GRID:
        radius = 14
        pmf = displacement_pmf(QParam(q), radius=radius)
        assert pmf.tail_bound == 2.0 * q**radius
        gap = 1.0 - sum(pmf.prob(d) for d in range(-radius, radius + 1))
        assert 0.0 < gap <= pmf.tail_bound, f"q={q}: gap {gap:.3e}"


def test_displacement_matches_diagonal_sum():
    for q in Q_GRID:
        pmf = displacement_pmf(QParam(q), radius=8)
        for d in range(0, 6):
            want = oracles.displacement_diag_sum(q, d)
            got = pmf.prob(d)
            assert got == pytest.approx(want, rel=1e-10), f"q={q} d={d}"


def test_displacement_out_of_radius_is_zero():
    # the table covers [-radius..radius]; outside it only tail_bound speaks
    pmf = displacement_pmf(P5, radius=5)
    assert pmf.prob(6) == 0.0
    assert pmf.prob(-17) == 0.0


# --------------------------------------------------------------------------
# joint and conditional (R, L) laws
# --------------------------------------------------------------------------

def test_joint_rl_frozen_corner():
    # P(R=0, L=0) = (1-q) <inf>_q
    poch_inf = pochhammer_table(P5)[-1]
    assert joint_rl_pmf(P5, 0, 0) == pytest.approx(0.5 * poch_inf, rel=1e-13)
    assert joint_rl_pmf(P5, 0, 0) == pytest.approx(0.1443940475433012, abs=1e-14)


def test_joint_rl_marginal_is_geometric():
    for q in Q_GRID:
        p = QParam(q)
        for r in range(0, 11):
            total = sum(joint_rl_pmf(p, r, ell) for ell in range(0, 200))
            want = (1 - q) * q**r
            assert total == pytest.approx(want, abs=1e-10), f"q={q} r={r}"


def test_joint_rl_symmetric():
    for r in range(0, 8):
        for ell in range(0, 8):
            assert joint_rl_pmf(P5, r, ell) == joint_rl_pmf(P5, ell, r)


@pytest.mark.parametrize("q", [0.3, 0.7, 0.95])
def test_joint_rl_symmetric_bit_exact(q):
    # one power q^(r*ell+r+ell) keeps the law bit-exactly symmetric where
    # powers of q are inexact
    p = QParam(q)
    for r in range(0, 40):
        for ell in range(0, r):
            assert joint_rl_pmf(p, r, ell) == joint_rl_pmf(p, ell, r), (r, ell)


def test_left_count_mean():
    # E[L] = q / (1 - q): the left count marginal is geometric(q)
    for q in Q_GRID:
        p = QParam(q)
        mean = sum(
            ell * joint_rl_pmf(p, r, ell)
            for r in range(0, 140)
            for ell in range(0, 140)
        )
        assert mean == pytest.approx(q / (1 - q), abs=1e-9), f"q={q}"


def test_conditional_l_given_r_normalizes():
    for q in Q_GRID:
        p = QParam(q)
        for r in range(0, 9):
            total = sum(conditional_l_given_r(p, r, ell) for ell in range(0, 160))
            assert total == pytest.approx(1.0, abs=1e-10), f"q={q} r={r}"


def test_conditional_l_given_r_at_zero():
    # P(L=0 | R=r) = <inf>_q / <r>_q
    table = pochhammer_table(P5, 12)
    for r in range(0, 9):
        want = table[-1] / table[r]
        assert conditional_l_given_r(P5, r, 0) == pytest.approx(want, rel=1e-12)


def test_joint_rl_rejects_negative():
    with pytest.raises(DomainError):
        joint_rl_pmf(P5, -1, 0)
    with pytest.raises(DomainError):
        conditional_l_given_r(P5, 0, -2)


# --------------------------------------------------------------------------
# finite-dimensional displacement events
# --------------------------------------------------------------------------

def test_fdd_query_validation():
    with pytest.raises(DomainError):
        FddQuery(0, ())
    with pytest.raises(DomainError):
        FddQuery(2, (1,))


@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), 1.0, np.float64(2.0), "1"])
def test_fdd_query_refuses_non_integer_displacements(bad):
    # 1.5 used to become 1, so fdd_probability answered for another event
    with pytest.raises(DomainError, match="must be integers"):
        FddQuery(2, (0, bad))


@pytest.mark.parametrize("bad", [1.5, float("nan")])
def test_laws_refuse_non_integer_inputs(bad):
    # 1.5 used to be read as 1, so conditional_l_given_r answered for r=1
    calls = [lambda: joint_rl_pmf(P5, bad, 0), lambda: joint_rl_pmf(P5, 0, bad),
             lambda: conditional_l_given_r(P5, bad, 0),
             lambda: conditional_l_given_r(P5, 0, bad),
             lambda: block_p2(P5, (bad,), (0,)), lambda: block_p2(P5, (1, 0), (0, bad))]
    for call in calls:
        with pytest.raises(DomainError, match="must be integers"):
            call()


def test_laws_take_numpy_integers():
    two = np.int64(2)
    assert joint_rl_pmf(P5, two, 1) == joint_rl_pmf(P5, 2, 1)
    assert conditional_l_given_r(P5, 1, two) == conditional_l_given_r(P5, 1, 2)
    assert block_p2(P5, (two, 1), (0, two)) == block_p2(P5, (2, 1), (0, 2))


@pytest.mark.parametrize("bad", [2.0, np.float64(2.0), 1.5, float("nan"), "2", None])
def test_fdd_query_refuses_a_k_that_is_not_an_integer(bad):
    # 2.0 used to be kept as k=2.0, comparing and hashing equal to k=2
    with pytest.raises(DomainError, match="k must be an integer"):
        FddQuery(bad, (0, 1))


def test_fdd_query_takes_numpy_integers():
    query = FddQuery(np.int64(3), (np.int64(-1), np.int32(0), 2))
    assert query.k == 3 and type(query.k) is int
    assert query.d == (-1, 0, 2) and all(type(x) is int for x in query.d)
    assert query == FddQuery(3, (-1, 0, 2))
    want = fdd_probability(QParam(0.5), FddQuery(3, (-1, 0, 2)), 1e-12)
    assert fdd_probability(QParam(0.5), query, 1e-12) == want


@pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
def test_fdd_refuses_tolerance_outside_positive_reals(tol):
    # with tol = nan no term would ever pass `term <= tol * inner`, so the
    # series would run on for ever
    with pytest.raises(DomainError):
        fdd_probability(P5, FddQuery(1, (0,)), tol)


def test_fdd_frozen_values():
    for d, want in FDD_FROZEN.items():
        val, err = fdd_probability(P5, FddQuery(len(d), d), 1e-12)
        assert val == pytest.approx(want, abs=1e-9), f"d={d}"
        assert err < 1e-12 * max(val, 1.0)


def test_fdd_k1_equals_displacement():
    for q in Q_GRID:
        p = QParam(q)
        pmf = displacement_pmf(p, radius=8)
        for d in range(-6, 7):
            val, _ = fdd_probability(p, FddQuery(1, (d,)), 1e-12)
            assert val == pytest.approx(pmf.prob(d), rel=1e-10), f"q={q} d={d}"


def test_fdd_collision_is_impossible_event():
    val, err = fdd_probability(P5, FddQuery(2, (1, 0)), 1e-12)
    assert (val, err) == (0.0, 0.0)


@pytest.mark.parametrize("q", [0.999, 1e-300])
def test_fdd_impossible_event_is_answered_before_any_refusal(q):
    # every series refuses at both q: on <inf>_q at 0.999, and at 1e-300 on
    # the k=3 prefactor q^-6, which overflows; a collision reads no table
    p = QParam(q)
    for d in [(1, 0, -1), (2, 0, 0), (0, -1, 1), (0, 1, 0)]:
        assert fdd_probability(p, FddQuery(3, d), 1e-12) == (0.0, 0.0), f"d={d}"
    with pytest.raises(DomainError):
        fdd_probability(p, FddQuery(3, (0, 0, 0)), 1e-12)


def test_fdd_unsorted_is_q_power_times_sorted():
    # d = (1, -1) pins values (2, 1): one inversion against (0, 0)'s (1, 2)
    sorted_val, _ = fdd_probability(P5, FddQuery(2, (0, 0)), 1e-12)
    swapped_val, _ = fdd_probability(P5, FddQuery(2, (1, -1)), 1e-12)
    assert swapped_val == pytest.approx(0.5 * sorted_val, rel=1e-12)


def test_fdd_marginalizes_to_displacement():
    pmf = displacement_pmf(P5, radius=6)
    for d1 in (-2, 0, 1, 3):
        total = sum(
            fdd_probability(P5, FddQuery(2, (d1, d2)), 1e-12)[0]
            for d2 in range(-25, 26)
        )
        assert total == pytest.approx(pmf.prob(d1), abs=1e-6), f"d1={d1}"


def test_fdd_matches_constrained_series_oracle():
    # the oracle's <inf>_q is the 200-bit value rounded once, so the two
    # agree to round-off: 2.2e-14 at q=0.95
    for q in (0.3, 0.5, 0.8, 0.95):
        p = QParam(q)
        for d in [(0,), (-1, 1), (0, 0), (0, 1), (-2, 3), (0, 0, 0), (-1, 0, 2)]:
            want = oracles.fdd_sorted_oracle(q, list(d))
            got, _ = fdd_probability(p, FddQuery(len(d), d), 1e-12)
            assert got == pytest.approx(want, rel=1e-12), f"q={q} d={d}"


def test_fdd_indices_past_the_first_table():
    # b1 >= 70 (or a_k >= 70) runs past the default 0..64 table, so the
    # evaluation must fetch a longer one mid-series
    assert len(pochhammer_table(P5)) <= 70
    pmf = displacement_pmf(P5, radius=70)
    for d in [(70,), (-70,), (70, 71), (-71, -70)]:
        got, err = fdd_probability(P5, FddQuery(len(d), d), 1e-12)
        want = oracles.fdd_sorted_oracle(0.5, list(d))
        assert got == pytest.approx(want, rel=1e-12), f"d={d}"
        assert 0.0 <= err <= 1e-12 * got, f"d={d}"
        if len(d) == 1:
            assert got == pytest.approx(pmf.prob(d[0]), rel=1e-12), f"d={d}"


@pytest.mark.parametrize("q", [0.02, 0.3, 0.5, 0.8, 0.95, 0.9965])
def test_displacement_pmf_is_the_k1_fdd_series(q):
    p = QParam(q)
    radius = 70
    pmf = displacement_pmf(p, radius)
    for d in range(radius + 1):
        got, _ = fdd_probability(p, FddQuery(1, (d,)), p.eps_series)
        assert pmf.prob(d) == got, f"d={d}"
        # d < 0 sums the mirrored series, so it agrees to rounding only
        got, _ = fdd_probability(p, FddQuery(1, (-d,)), p.eps_series)
        assert pmf.prob(-d) == pytest.approx(got, rel=1e-13, abs=0.0), f"d={-d}"


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.95])
def test_fdd_reflection_identity(q):
    # sigma -> (i -> 1 - sigma(1 - i)) preserves the law; with shift
    # stationarity, P(d_1, ..., d_k) = P(-d_k, ..., -d_1)
    p = QParam(q)
    for k in (2, 3):
        for d in itertools.product(range(-3, 4), repeat=k):
            got, _ = fdd_probability(p, FddQuery(k, d), 1e-12)
            mirror = tuple(-x for x in reversed(d))
            want, _ = fdd_probability(p, FddQuery(k, mirror), 1e-12)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), f"d={d}"


@pytest.mark.parametrize("q", [0.997, 0.999])
def test_laws_refuse_underflowing_denominators(q):
    # a product of <n>_q values underflows to 0 within the series at 0.997;
    # at 0.999 <inf>_q is subnormal and the series refuse before any term
    p = QParam(q)
    with pytest.raises(DomainError):
        displacement_pmf(p, radius=0)
    for d in [(0,), (-1, 1), (2, 0), (0, 0, 0)]:
        with pytest.raises(DomainError):
            fdd_probability(p, FddQuery(len(d), d), 1e-12)


@pytest.mark.parametrize("q", [1e-310, 1e-300, 0.997, 0.999])
def test_displacement_pmf_refuses_as_its_first_refused_k1_query(q):
    # the one pass over d = 0..radius raises what one FddQuery(1, (d,)) per
    # d raises first: q^-1 overflows at 1e-310, P(D=1) underflows at 1e-300,
    # the tail's <b1><a_k> underflows at 0.997 and <inf>_q is subnormal at 0.999
    with pytest.raises(DomainError) as pmf:
        displacement_pmf(QParam(q), 40)
    p = QParam(q)
    first = None
    for d in range(41):
        try:
            fdd_probability(p, FddQuery(1, (d,)), p.eps_series)
        except DomainError as err:
            first = err
            break
    assert first is not None
    assert (type(pmf.value), str(pmf.value)) == (type(first), str(first))


@pytest.mark.parametrize("q", [0.3, 0.8, 0.985])
def test_fdd_memo_hit_is_a_fresh_evaluation(q):
    # p keeps one entry per distinct sorted query; a permuted query and a
    # repeated one answer from it with exactly what a fresh QParam returns
    box = [d for k in (1, 2, 3) for d in itertools.product(range(-3, 4), repeat=k)]
    p = QParam(q)
    first = [fdd_probability(p, FddQuery(len(d), d), 1e-12) for d in box]
    again = [fdd_probability(p, FddQuery(len(d), d), 1e-12) for d in box]
    fresh = [fdd_probability(QParam(q), FddQuery(len(d), d), 1e-12) for d in box]
    assert first == again == fresh
    sorted_queries = set()
    for d in box:
        vals = [x + m + 1 for m, x in enumerate(d)]
        if len(set(vals)) == len(d):
            sorted_queries.add(tuple(v - m - 1 for m, v in enumerate(sorted(vals))))
    # beside them, one inner tail sum per distinct (d_1+head, A, R, tol)
    inner_keys = set()
    for d in sorted_queries:
        k = len(d)
        for a_head in itertools.product(*[range(d[m + 1] - d[m] + 1) for m in range(k - 1)]):
            head = sum(a_head)
            inner_keys.add((d[0] + head, head + k - 1, d[-1] - d[0] - head + k - 1, 1e-12))
    # and one composition weight table per distinct gap tuple, () at k=1
    weight_keys = {("weights", tuple(b - a for a, b in zip(d, d[1:]))) for d in sorted_queries}
    assert set(p.memo) == {(d, 1e-12) for d in sorted_queries} | inner_keys | weight_keys
    # displacement_pmf reads the k=1 tails and weights at tol = eps_series
    # and adds none
    before = dict(p.memo)
    pmf = displacement_pmf(p, 3)
    assert p.memo == before
    assert all(pmf.prob(d) == first[box.index((abs(d),))][0] for d in range(-3, 4))


@pytest.mark.parametrize("q, d", [(0.3, (-2, 0, 1)), (0.8, (-1, -1, 0, 2)), (0.5, (3,))])
def test_fdd_memo_hit_never_reaches_the_series(q, d, monkeypatch):
    # once the sorted query is kept, it and every permutation of its
    # implied values are answered from p.memo alone
    values = [x + m for m, x in enumerate(d, 1)]
    queries = [tuple(v - m for m, v in enumerate(order, 1))
               for order in itertools.permutations(values)]
    fresh = [fdd_probability(QParam(q), FddQuery(len(e), e), 1e-12) for e in queries]
    p = QParam(q)
    fdd_probability(p, FddQuery(len(d), d), 1e-12)

    def refuse(*args):
        raise AssertionError("a memo hit reached _series")

    monkeypatch.setattr(dist, "_series", refuse)
    assert fdd_probability(p, FddQuery(len(d), d), 1e-12) == fresh[0]
    assert [fdd_probability(p, FddQuery(len(e), e), 1e-12) for e in queries] == fresh


def test_fdd_queries_with_equal_gaps_share_one_weight_table():
    p = QParam(0.8)
    fdd_probability(p, FddQuery(3, (-2, 1, 3)), 1e-12)
    weights = p.memo[("weights", (3, 2))]
    fdd_probability(p, FddQuery(3, (0, 3, 5)), 1e-12)
    # an unsorted query with the same sorted gaps reads it too
    fdd_probability(p, FddQuery(3, (2, -3, 3)), 1e-12)
    assert [key for key in p.memo if key[0] == "weights"] == [("weights", (3, 2))]
    assert p.memo[("weights", (3, 2))] is weights
    # one entry per head 0..5, each with its smallest composition denominator
    assert [h for h, _, _ in weights] == list(range(6))
    assert all(0.0 < den <= 1.0 and w > 0.0 for _, w, den in weights)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.985])
def test_fdd_weight_hit_is_a_fresh_evaluation(q):
    # the second query of each pair reads the weights the first one stored
    p = QParam(q)
    for d, shifted in [((-3, 0, 3), (1, 4, 7)), ((-2, -2, 1, 1), (2, 2, 5, 5)),
                       ((0, 4), (-6, -2))]:
        fdd_probability(p, FddQuery(len(d), d), 1e-12)
        assert (fdd_probability(p, FddQuery(len(shifted), shifted), 1e-12)
                == fdd_probability(QParam(q), FddQuery(len(shifted), shifted), 1e-12))


def test_tail_series_and_gap_weights_leave_the_memo_untouched():
    # _series alone keeps what they compute
    p = QParam(0.8)
    vals = pochhammer_table(p, 12)
    tail = dist._tail_series(p, vals, (2, 1, 5, 1e-12))
    weights = dist._gap_weights(p, (3, 2), vals)
    assert tail[0] > 0.0 and len(weights) == 6
    assert p.memo == {}


def test_fdd_refuses_past_the_composition_budget_before_any_table(monkeypatch):
    # (0, 5, ..., 45) sums over 6^9 compositions of its gaps, and so does
    # the query of its implied values 1, 7, ..., 55 in reverse order
    d = tuple(range(0, 50, 5))
    reverse = tuple(v - m for m, v in enumerate(range(55, 0, -6), 1))
    p = QParam(0.5)

    def no_table(*args):
        raise AssertionError("a refused query read a table")

    monkeypatch.setattr(dist, "pochhammer_table", no_table)
    for e in (d, reverse):
        with pytest.raises(TooLargeError, match="MAX_COMPOSITIONS=1048576"):
            fdd_probability(p, FddQuery(10, e), 1e-12)
    assert p.memo == {}
    # an impossible event is still the exact (0, 0): v_1 = v_2 = 2
    assert fdd_probability(p, FddQuery(10, (1, 0) + d[2:]), 1e-12) == (0.0, 0.0)


def test_fdd_answers_a_query_at_the_composition_budget():
    # 1024 * 1024 = MAX_COMPOSITIONS compositions are summed; 1025 * 1024 are not
    assert MAX_COMPOSITIONS == 1024 * 1024
    p = QParam(0.9)
    value, err = fdd_probability(p, FddQuery(3, (0, 1023, 2046)), 1e-12)
    assert value >= sys.float_info.min and err >= 0.0
    with pytest.raises(TooLargeError):
        fdd_probability(p, FddQuery(3, (0, 1024, 2047)), 1e-12)


def _reference_gap_weights(q, gaps, vals):
    """_gap_weights as its docstring states it: every composition in
    itertools.product order, C = sum_j (a_j+1) R_j with R_j = sum_{i<j}
    (g_i - a_i + 1), den_rest the <g_j - a_j> in gap order and then the
    <a_j>, each head's weights added in that order, its smallest den_rest."""
    heads = {}
    for comp in itertools.product(*(range(g + 1) for g in gaps)):
        big_c = big_r = 0
        den = 1.0
        for g, a in zip(gaps, comp):
            big_c += (a + 1) * big_r
            big_r += g - a + 1
            den *= vals[g - a]
        for a in comp:
            den *= vals[a]
        weight = q**big_c / den
        head = sum(comp)
        if head in heads:
            total, den_min = heads[head]
            heads[head] = total + weight, den if den < den_min else den_min
        else:
            heads[head] = weight, den
    return [(h, w, den) for h, (w, den) in heads.items()]


@pytest.mark.parametrize("q", [0.02, 0.5, 0.95, 0.996])
def test_gap_weights_match_the_reference_bit_for_bit(q):
    # the golden laws digests pin the k <= 3 boxes only; three gaps are k = 4
    p = QParam(q)
    vals = pochhammer_table(p, 6)

    def bits(rows):
        return [(h, w.hex(), den.hex()) for h, w, den in rows]

    for n in (1, 2, 3):
        for gaps in itertools.product(range(7), repeat=n):
            assert (bits(dist._gap_weights(p, gaps, vals))
                    == bits(_reference_gap_weights(q, gaps, vals))), gaps


@pytest.mark.parametrize("d", [(-22, 0, 22), (-16, 0, 28)])
def test_fdd_refusal_reads_each_heads_smallest_denominator(d):
    # at q=0.996 a head's first composition keeps a normal full denominator,
    # but a later one of the same head underflows to 0
    p = QParam(0.996)
    with pytest.raises(DomainError, match="a denominator underflows to 0"):
        fdd_probability(p, FddQuery(3, d), 1e-12)
    assert (d, 1e-12) not in p.memo


@pytest.mark.parametrize("q, d", [(0.3, (700,)), (0.3, (-300, 300)), (0.3, (300, -300)),
                                  (1e-300, (1,)), (1e-30, (-3, 0, 3))])
def test_fdd_refuses_a_probability_below_the_normal_doubles(q, d):
    # each event is possible, but its value underflowed to 0.0 or a subnormal
    p = QParam(q)
    with pytest.raises(DomainError, match="below the normal doubles"):
        fdd_probability(p, FddQuery(len(d), d), 1e-12)
    assert not [key for key in p.memo if isinstance(key[0], tuple)]


def test_fdd_refuses_where_the_inversion_factor_underflows():
    # the sorted series (-294, 293) is normal and kept; times q it is not
    p = QParam(0.3)
    value, _ = fdd_probability(p, FddQuery(2, (-294, 293)), 1e-12)
    assert value >= sys.float_info.min
    with pytest.raises(DomainError, match="below the normal doubles"):
        fdd_probability(p, FddQuery(2, (294, -295)), 1e-12)
    # an impossible event is still the exact (0, 0)
    assert fdd_probability(p, FddQuery(2, (700, 699)), 1e-12) == (0.0, 0.0)


def test_displacement_pmf_refuses_an_underflowing_entry():
    # at q=1e-300, P(D=1) is about 1e-300 * 1e-300: below the normal doubles
    p = QParam(1e-300)
    assert displacement_pmf(p, 0).prob(0) > 0.0
    with pytest.raises(DomainError, match="below the normal doubles"):
        displacement_pmf(p, 1)


def test_law_tables_compare_by_their_probabilities():
    # neither table keeps q, and every radius-0 displacement table has
    # tail_bound 2.0, so only the entries tell two q apart
    assert displacement_pmf(QParam(0.3), 0) != displacement_pmf(QParam(0.5), 0)
    assert displacement_pmf(QParam(0.3), 2) == displacement_pmf(QParam(0.3), 2)
    assert oracle_enumerate(2, QParam(0.3)) != oracle_enumerate(2, QParam(0.5))


def test_fdd_query_keeps_its_fields_equality_and_hash():
    query = FddQuery(3, [np.int64(2), -3, 3])
    assert (query.k, query.d) == (3, (2, -3, 3))
    assert query == FddQuery(k=3, d=(2, -3, 3)) != FddQuery(3, (2, -3, 4))
    assert hash(query) == hash(FddQuery(3, (2, -3, 3)))
    assert repr(query) == "FddQuery(k=3, d=(2, -3, 3))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        query.k = 2
    for k, d, match in [(0, (), "k must be >= 1"), (-1, (0,), "k must be >= 1"),
                        (2, (1,), "expected 2 displacements, got 1"),
                        (1, 3, "must be integers"), (2, (0, 1.0), "must be integers")]:
        with pytest.raises(DomainError, match=match):
            FddQuery(k, d)


@pytest.mark.parametrize("q", [0.3, 0.8, 0.95])
def test_fdd_wide_queries_match_the_direct_sum(q):
    # spread >= 10: many compositions of the fixed gaps share one head, and
    # so one inner tail sum
    p = QParam(q)
    for d in [(-5, 0, 0, 5), (-6, -6, 0, 4, 4), (-5, -5, -3, 0, 5, 5)]:
        want = oracles.fdd_sorted_oracle(q, list(d), tail_terms=120)
        got, err = fdd_probability(p, FddQuery(len(d), d), 1e-12)
        assert got == pytest.approx(want, rel=1e-11), f"d={d}"
        assert 0.0 <= err <= 1e-12 * got, f"d={d}"
        assert (got, err) == fdd_probability(QParam(q), FddQuery(len(d), d), 1e-12)


@pytest.mark.parametrize("d", [(-30, 30), (-26, 0, 26)])
def test_fdd_refuses_where_a_full_denominator_underflows(d):
    # at q=0.996 each inner <b1><a_k> is normal, but times the fixed gaps'
    # <n>_q it underflows to 0 at the last term
    p = QParam(0.996)
    with pytest.raises(DomainError, match="a denominator underflows to 0"):
        fdd_probability(p, FddQuery(len(d), d), 1e-12)
    assert (d, 1e-12) not in p.memo


@pytest.mark.parametrize("q", [0.9977, 0.998, 0.999])
def test_laws_refuse_a_subnormal_infinite_product(q):
    # from q ~ 0.9977 the refusal names <inf>_q, not a later underflow
    p = QParam(q)
    calls = [lambda: displacement_pmf(p, radius=0)]
    calls += [lambda d=d: fdd_probability(p, FddQuery(len(d), d), 1e-12)
              for d in [(0,), (-1, 1), (2, 0), (0, 0, 0)]]
    # the closed forms read the same <inf>_q; at q=0.999 it is 0.0, so their
    # quotient would be 0.0 for a possible event
    calls += [lambda: joint_rl_pmf(p, 0, 0), lambda: joint_rl_pmf(p, 2, 5),
              lambda: conditional_l_given_r(p, 0, 0), lambda: conditional_l_given_r(p, 3, 1),
              lambda: block_p2(p, (0,), (0,)), lambda: block_p2(p, (1, 2), (2, 0))]
    for call in calls:
        with pytest.raises(DomainError, match=r"<inf>_q = .* is not a normal double"):
            call()


@pytest.mark.parametrize(
    "q, call",
    [
        (0.999, lambda p: q_factorial(200, p)),
        (0.996, lambda p: conditional_l_given_r(p, 3000, 3000)),
        (0.996, lambda p: joint_rl_pmf(p, 3000, 3000)),
        (0.996, lambda p: block_p2(p, (3000,), (3000,))),
    ],
    ids=["q_factorial", "conditional_l_given_r", "joint_rl_pmf", "block_p2"],
)
def test_underflowing_quotients_are_domain_errors(q, call):
    # (1-q)^200 underflows to 0 at q = 0.999, and <3000>_q^2 at q = 0.996,
    # below the q ~ 0.9977 from which the closed forms refuse <inf>_q first
    with pytest.raises(DomainError, match="a denominator underflows to 0"):
        call(QParam(q))
    # what the laws benchmark evaluates at q = 0.999 still works
    p = QParam(0.999)
    want = math.prod(math.fsum(p.q**k for k in range(i)) for i in range(1, 7))
    assert q_factorial(6, p) == pytest.approx(want, rel=1e-12)
    assert run_suite("exchangeability", (), p, 0).overall_pass


@pytest.mark.parametrize(
    "call",
    [
        lambda s: block_p2(P5, (1, 2), (1,)),
        lambda s: block_p2(P5, (1, -1), (0, 0)),
        lambda s: q_factorial(-1, P5),
        lambda s: fdd_probability(QParam(1e-200), FddQuery(2, (0, 1)), 1e-12),
        lambda s: displacement_pmf(QParam(1e-310), 10),
        lambda s: fdd_probability(QParam(1e-310), FddQuery(1, (3,)), 1e-12),
        lambda s: displacement_pmf(QParam(1e-300), 10),
        lambda s: fdd_probability(QParam(1e-300), FddQuery(1, (1,)), 1e-12),
        lambda s: s.truncated_geometrics(np.full(1, -1)),
        lambda s: sample_finite_mallows(0, P5, s),
        lambda s: q_shuffle_prefix(0, P5, s),
        lambda s: sample_two_sided_interlacing(2, 1, P5, s),
        lambda s: batch_interlacing_windows(2, 1, P5, s, 5),
        lambda s: sample_two_sided_interlacing(2**62 - 1, 2**62 + 1, P5, s),
        lambda s: sample_two_sided_interlacing(-(2**63), -(2**63) + 8, P5, s),
        lambda s: batch_interlacing_windows(2**63 - 8, 2**63 - 2, P5, s, 3),
        lambda s: batch_interlacing_windows(-(2**62) - 1, -(2**62) + 1, P5, s, 3),
    ],
    ids=["block_p2-lengths", "block_p2-negative-gap", "q_factorial",
         "fdd-overflow", "displacement-overflow", "fdd-k1-overflow",
         "displacement-underflow", "fdd-k1-underflow", "truncated-geometric", "finite",
         "shuffle-prefix", "interlacing", "interlacing-kernel", "interlacing-past-2^62",
         "interlacing-at-int64-min", "interlacing-kernel-at-int64-max",
         "interlacing-kernel-below-2^62"],
)
def test_library_refusals_draw_nothing(call):
    # q^-(k(k+1)/2) overflows at k=2, q=1e-200 and at k=1, q=1e-310; P(D=1)
    # underflows at q=1e-300
    s = GeomStream(seed=0, q=0.5)
    with pytest.raises(DomainError):
        call(s)
    assert s.counter == 0


def test_fdd_matches_finite_model_dp():
    # pins centered in a size-50 model approximate the two-sided law to
    # roughly q^24 (measured diff <= 1.3e-8 across these cases)
    q = 0.5
    for d in [(0,), (2,), (-1, 1), (0, 0), (1, -1), (0, 0, 0)]:
        k = len(d)
        center = 24
        pins = {center + m: center + m + d[m - 1] for m in range(1, k + 1)}
        want = oracles.finite_pinned_prob(50, q, pins)
        got, _ = fdd_probability(P5, FddQuery(k, d), 1e-12)
        assert got == pytest.approx(want, abs=5e-8), f"d={d}"


# --------------------------------------------------------------------------
# diagram block probabilities
# --------------------------------------------------------------------------

def test_block_p2_empty_diagram_corner():
    # P(lambda_1 = 0) = <inf>_q
    poch_inf = pochhammer_table(P5)[-1]
    assert block_p2(P5, (0,), (0,)) == pytest.approx(poch_inf, rel=1e-13)


def test_block_p2_row_marginal_normalizes():
    for b1 in range(0, 6):
        total = sum(block_p2(P5, (b1,), (a1,)) for a1 in range(0, 130))
        assert total == pytest.approx(1.0, abs=1e-8), f"b1={b1}"


@pytest.mark.parametrize(
    "b,a",
    [
        ((0,), (0,)),
        ((0,), (3,)),
        ((2,), (1,)),
        ((0, 1), (1, 1)),
        ((1, 0), (2, 1)),
        ((0, 0), (0, 0)),
        ((1, 2), (1, 0)),
    ],
)
def test_block_p2_matches_diagram_enumeration(b, a):
    pins = oracles.pins_from_gap_coords(b, a)
    want = oracles.diagram_pinned_prob(0.5, pins)
    got = block_p2(P5, b, a)
    assert got == pytest.approx(want, abs=1e-9), f"pins {pins}"


def _fdd_by_blocks(p, d):
    """(1-q)^k sum q^(B_1+...+B_k) block_p2(p, b, a) over the gap
    coordinates of nondecreasing d: b = (d_0 + a_1+...+a_{k-1} + a_k,
    d_1 - d_0 - a_1, ..., d_{k-1} - d_{k-2} - a_{k-1}) with
    0 <= a_m <= d_m - d_{m-1}, a_k >= 0 keeping b_1 >= 0, and
    B_j = b_1 + ... + b_j.  Each a_k sum stops once its terms fall below
    1e-30 of its own largest term."""
    k = len(d)
    total = 0.0
    for a_head in itertools.product(*(range(d[m] - d[m - 1] + 1) for m in range(1, k))):
        head = sum(a_head)
        b_rest = tuple(d[m] - d[m - 1] - a_head[m - 1] for m in range(1, k))
        a_k = max(0, -d[0] - head)
        largest = 0.0
        while True:
            b = (d[0] + head + a_k,) + b_rest
            expo = sum(itertools.accumulate(b))
            term = p.q**expo * block_p2(p, b, a_head + (a_k,))
            total += term
            largest = max(largest, term)
            if term < 1e-30 * largest:
                break
            a_k += 1
    return (1.0 - p.q) ** k * total


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.8, 0.95])
def test_fdd_is_a_sum_of_diagram_block_laws(q):
    # the sorted fdd series regrouped by pinned rows: the two evaluators
    # share only the Pochhammer table
    p = QParam(q)
    for k in (1, 2, 3):
        for d in itertools.combinations_with_replacement(range(-2, 3), k):
            want, _ = fdd_probability(p, FddQuery(k, d), 1e-15)
            assert _fdd_by_blocks(p, d) == pytest.approx(want, rel=1e-14), f"d={d}"
