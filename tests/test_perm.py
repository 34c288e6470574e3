"""Windows, inversion-count codecs, the leftward chain, and truncation and
inversion of window rows."""
from __future__ import annotations

import random
from itertools import permutations

import numpy as np
import pytest

from mallows.errors import DomainError, NotSelfContainedError, RejectSupportError
from mallows.perm import (
    PermWindow,
    _chain_horizon,
    _leftward_chains,
    _pop_letters,
    adjacent_swap_r,
    eliminate_left,
    eliminate_right,
    inversions,
    invert_window,
    truncate,
)
from mallows.qseries import QParam
from mallows.samplers import batch_interlacing_windows
from mallows.streams import GeomStream
from oracles import pair_counts

P5 = QParam(0.5)


# --------------------------------------------------------------------------
# PermWindow basics
# --------------------------------------------------------------------------

def test_window_validation():
    with pytest.raises(ValueError):
        PermWindow(lo=0, hi=2, values=(1, 2))  # width mismatch
    with pytest.raises(ValueError):
        PermWindow(lo=0, hi=2, values=(1, 1, 2))  # duplicate
    w = PermWindow(lo=-1, hi=1, values=(0, -1, 1))
    assert w.values == (0, -1, 1)


def test_inversions_examples():
    assert inversions((3, 1, 2, 4)) == 2
    assert inversions((4, 3, 2, 1)) == 6
    assert inversions((1, 2, 3)) == 0


def test_inversion_counts_example():
    r, ell = pair_counts((3, 1, 2, 4))
    assert r == (2, 0, 0, 0)
    assert ell == (0, 1, 1, 0)


# --------------------------------------------------------------------------
# elimination codecs
# --------------------------------------------------------------------------

def test_eliminate_right_examples():
    assert eliminate_right((2, 0, 0, 0)).values == (3, 1, 2, 4)
    assert eliminate_right((3, 2, 1, 0)).values == (4, 3, 2, 1)
    assert eliminate_right((0,)).values == (1,)
    # random right counts: word entry i is the (r_i+1)-th smallest unused value
    rng = random.Random(5)
    for n in (1, 5, 300):
        for _ in range(20):
            r = [rng.randrange(n - i) for i in range(n)]
            unused = list(range(1, n + 1))
            want = tuple(unused.pop(ri) for ri in r)
            assert eliminate_right(r).values == want, f"r={r}"


def test_eliminate_left_examples():
    assert eliminate_left((0, 1, 1, 0)).values == (3, 1, 2, 4)
    assert eliminate_left((0, 1, 2, 3)).values == (4, 3, 2, 1)


def test_eliminate_right_support():
    with pytest.raises(RejectSupportError):
        eliminate_right((4, 0, 0, 0))  # r[0] must be <= 3
    with pytest.raises(RejectSupportError):
        eliminate_right((0, 0, 0, 1))  # last entry must be 0
    with pytest.raises(RejectSupportError, match=r"r\[2\] = -1 "):
        eliminate_right((0, 0, -1, 0))
    with pytest.raises(RejectSupportError):
        eliminate_left((1, 0, 0, 0))  # l[0] must be 0


def test_eliminate_left_support_names_the_rightmost_bad_entry():
    # support is checked right to left, the order the word is built in
    with pytest.raises(RejectSupportError, match=r"^ell\[0\] = 1 outside support 0\.\.0$"):
        eliminate_left((1, 0, 0, 0))
    with pytest.raises(RejectSupportError, match=r"^ell\[3\] = 4 outside support 0\.\.3$"):
        eliminate_left((1, 0, -1, 4))
    with pytest.raises(RejectSupportError, match=r"^ell\[2\] = -1 outside support 0\.\.2$"):
        eliminate_left((1, 0, -1, 0))


# --------------------------------------------------------------------------
# adjacent swaps
# --------------------------------------------------------------------------

def test_adjacent_swap_examples():
    assert adjacent_swap_r(0, 0) == (1, 0)
    assert adjacent_swap_r(1, 0) == (0, 0)
    assert adjacent_swap_r(2, 2) == (3, 2)


def test_adjacent_swap_involution_and_weight():
    for a in range(13):
        for b in range(13):
            na, nb = adjacent_swap_r(a, b)
            assert adjacent_swap_r(na, nb) == (a, b), f"not involutive at {(a, b)}"
            delta = (na + nb) - (a + b)
            assert delta == (1 if a <= b else -1)


def test_adjacent_swap_matches_word_swap():
    for n in (4, 5):
        for sigma in permutations(range(1, n + 1)):
            r, _ = pair_counts(sigma)
            for i in range(n - 1):
                swapped = list(sigma)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                r2, _ = pair_counts(swapped)
                na, nb = adjacent_swap_r(r[i], r[i + 1])
                assert r2 == r[:i] + (na, nb) + r[i + 2 :], f"{sigma} i={i}"


# --------------------------------------------------------------------------
# the chain horizon
# --------------------------------------------------------------------------

@pytest.mark.parametrize("q", [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95])
def test_chain_horizon_is_the_first_state_within_budget(q):
    # q^k/(1-q) puts eps_tv on the boundary, where a log estimate can land
    # one state past it
    for k in range(1, 60):
        for eps_tv in (q**k / (1.0 - q), q**k, 2.0**-k, 10.0 ** -(k % 15 + 1)):
            x = _chain_horizon(q, eps_tv)
            assert x >= 0 and q ** (x + 1) / (1.0 - q) <= eps_tv
            assert x == 0 or q**x / (1.0 - q) > eps_tv, f"k={k} eps_tv={eps_tv!r}"


# --------------------------------------------------------------------------
# the leftward chain on arrays: q-shuffle letters and left counts
# --------------------------------------------------------------------------

@pytest.mark.parametrize("q", [0.3, 0.8, 0.95])
def test_leftward_chains_are_the_shuffle_letters(q):
    rng = np.random.default_rng(107)
    rows, width = 60, 100
    skips = rng.geometric(1.0 - q, size=(rows, width)) - 1
    n = rng.integers(0, width + 1, size=rows)
    n[:3] = (0, width, 1)
    letters = 1 + _leftward_chains(skips)
    assert letters.shape == (rows, width)
    for r in range(rows):
        # letter i is the (skip+1)-th smallest value not used yet, whatever
        # the skips after it
        unused = list(range(1, width + int(skips[r].max()) + 1))
        want = [unused.pop(int(k)) for k in skips[r, : n[r]]]
        assert letters[r, : n[r]].tolist() == want


def test_leftward_chains_edge_shapes():
    assert _leftward_chains(np.zeros((0, 5), dtype=np.int64)).shape == (0, 5)
    assert (1 + _leftward_chains(np.array([[0], [3], [2]]))).tolist() == [[1], [4], [3]]
    # one-sided skips reach 4e12 near q=1; worked by hand, beyond the list
    # oracle above and beyond any 32-bit letter
    big = 4 * 10**12
    letters = 1 + _leftward_chains(np.array([[big, 0, big, 1]], dtype=np.int64))
    assert letters.tolist() == [[big + 1, 1, big + 3, 3]]


@pytest.mark.parametrize("q", [0.3, 0.9, 0.999])
def test_pop_letters_above_n_are_the_array_chain(q):
    # near q=1 most skips run past 1..n, the only values _pop_letters lists
    rng = np.random.default_rng(29)
    for n in (1, 2, 7, 40, 150):
        skips = rng.geometric(1.0 - q, size=(20, n)) - 1
        want = (1 + _leftward_chains(skips)).tolist()
        assert [list(_pop_letters(row)) for row in skips.tolist()] == want
    assert _pop_letters([10**15, 0]) == (10**15 + 1, 1)
    assert _pop_letters([]) == ()


def test_leftward_chains_give_the_left_counts():
    # the codec identity: ell_j = j - (x_j - r_j) on a word's right counts
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 13, 40):
        words = [rng.permutation(n).tolist() for _ in range(30)]
        r, ell = (np.array(c) for c in zip(*(pair_counts(w) for w in words)))
        assert (np.arange(n) - (_leftward_chains(r) - r)).tolist() == ell.tolist()


# --------------------------------------------------------------------------
# truncation and inversion of window rows
# --------------------------------------------------------------------------

def _relabel(values, lo, sub_lo, sub_hi):
    """Truncation of one window written with lists: rank-relabel the values
    at sub_lo..sub_hi onto sub_lo..sub_hi."""
    sub = list(values[sub_lo - lo : sub_hi - lo + 1])
    ranked = sorted(sub)
    return [sub_lo + ranked.index(v) for v in sub]


def _dict_inverse(values, lo):
    where = {v: lo + k for k, v in enumerate(values)}
    return [where[lo + k] for k in range(len(values))]


@pytest.fixture(scope="module")
def kernel_rows():
    """500 exact windows on [-6..6] at q=0.5."""
    return batch_interlacing_windows(-6, 6, P5, GeomStream(seed=17, q=0.5), 500)


def test_truncate_examples():
    # values (1, 2) at positions 2..3 of the word 3124 relabel to (2, 3)
    assert truncate(np.array([[3, 1, 2, 4]]), 1, 2, 3).tolist() == [[2, 3]]
    w = np.array([[3, 1, 2, 4], [4, 3, 2, 1]])
    assert truncate(w, 1, 1, 4).tolist() == w.tolist()
    assert truncate(w, 1, 3, 3).tolist() == [[3], [3]]
    for sub_lo, sub_hi in ((0, 2), (2, 5), (3, 2)):
        with pytest.raises(DomainError):
            truncate(w, 1, sub_lo, sub_hi)


def test_truncate_rows_are_rank_relabels(kernel_rows):
    for sub_lo, sub_hi in ((-6, 6), (-4, 4), (-2, 3), (0, 0), (5, 6)):
        got = truncate(kernel_rows, -6, sub_lo, sub_hi)
        assert got.shape == (500, sub_hi - sub_lo + 1)
        want = [_relabel(row, -6, sub_lo, sub_hi) for row in kernel_rows.tolist()]
        assert got.tolist() == want, (sub_lo, sub_hi)


def test_truncate_tower_property(kernel_rows):
    outer = truncate(kernel_rows, -6, -4, 4)
    inner_direct = truncate(kernel_rows, -6, -2, 2)
    inner_via_outer = truncate(outer, -4, -2, 2)
    assert (inner_direct == inner_via_outer).all()


def test_invert_window_involution():
    w = np.array([[0, -2, 1, 2, -1]])
    inv = invert_window(w, -2)
    assert (invert_window(inv, -2) == w).all()
    # value v at position i <-> value i at position v
    for i in range(-2, 3):
        assert inv[0, w[0, i + 2] + 2] == i


def test_invert_window_rows_match_a_dict_inverse(kernel_rows):
    rows = kernel_rows[(kernel_rows.min(axis=1) == -6) & (kernel_rows.max(axis=1) == 6)]
    assert 20 < len(rows) < 500  # some rows are self-contained, not all
    inv = invert_window(rows, -6)
    assert inv.tolist() == [_dict_inverse(row, -6) for row in rows.tolist()]
    assert (invert_window(inv, -6) == rows).all()


def test_invert_window_requires_self_contained(kernel_rows):
    with pytest.raises(NotSelfContainedError):
        invert_window(np.array([[5, 0]]), 0)
    # one row whose values leave the window refuses the whole block
    contained = (kernel_rows.min(axis=1) == -6) & (kernel_rows.max(axis=1) == 6)
    block = np.vstack([kernel_rows[contained], kernel_rows[~contained][:1]])
    with pytest.raises(NotSelfContainedError):
        invert_window(block, -6)
    invert_window(block[:-1], -6)


def test_truncation_and_inversion_do_not_commute():
    # witness: truncating the inverse differs from inverting the truncation
    w = np.array([[1, -2, 0, 2, -1]])
    a = truncate(invert_window(w, -2), -2, -1, 1)
    b = invert_window(truncate(w, -2, -1, 1), -1)
    assert a.tolist() == [[1, 0, -1]]
    assert b.tolist() == [[-1, 0, 1]]

