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
    _chain_states,
    _leftward_chains,
    _narrow_skips,
    _pop_letters,
    adjacent_swap_r,
    eliminate_left,
    eliminate_right,
    inversions,
    invert_window,
    truncate,
)
from mallows.qseries import QParam
from mallows.samplers import _signed_letters, batch_interlacing_windows
from mallows.streams import GeomStream
from oracles import left_walk, pair_counts

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


@pytest.mark.parametrize("width", [1, 2, 9])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_leftward_chains_at_the_int32_edge(width, offset):
    # the states run in int32 only where r.max() < 2^31 - width, so a top
    # skip of 2^31 - width - 1 takes that path, and 2^31 - width and one
    # past it (whose chain would reach 2^31) do not
    top = 2**31 - width + offset
    rng = np.random.default_rng(13)
    skips = rng.integers(0, 5, size=(40, width))
    skips[np.arange(40), rng.integers(0, width, size=40)] = top - rng.integers(0, 3, size=40)
    skips[0] = top  # its chains end at top, top + 1, ..., top + width - 1
    chains = _leftward_chains(skips)
    assert chains.dtype == np.int64 and skips.max() == top
    assert (1 + chains).tolist() == [list(_pop_letters(row)) for row in skips.tolist()]


@pytest.mark.parametrize("bits", [15, 31])
@pytest.mark.parametrize("width", [1, 2, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_leftward_chains_at_each_dtype_switch(bits, width, offset):
    # the states run in int16 where r.max() < 2^15 - width and in int32
    # where r.max() < 2^31 - width: a top right count one below each
    # switch takes the narrower type, the switch itself and one past it
    # (whose chain would reach 2^bits) the wider one
    top = 2**bits - width + offset
    rng = np.random.default_rng(17)
    r = rng.integers(0, 5, size=(30, width))
    r[np.arange(30), rng.integers(0, width, size=30)] = top - rng.integers(0, 3, size=30)
    r[0] = top  # its chains end at top, top + 1, ..., top + width - 1
    chains = _leftward_chains(r)
    assert chains.dtype == np.int64 and r.max() == top
    want = [[left_walk(row[j - 1 :: -1] if j else [], row[j])[1] for j in range(width)]
            for row in r.tolist()]
    assert chains.tolist() == want


@pytest.mark.parametrize("bits", [15, 31])
@pytest.mark.parametrize("width", [1, 2, 64])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_chain_states_of_float_quotients_are_those_of_their_floors(bits, width, offset):
    # quotients log U / log q stand for their floors: exact integers, and
    # fractions just above an integer and just below the next, with a top
    # floor one below each dtype switch, at it and one past it
    top = 2**bits - width + offset
    rng = np.random.default_rng(19)
    r = rng.integers(0, 5, size=(30, width))
    r[np.arange(30), rng.integers(0, width, size=30)] = top - rng.integers(0, 3, size=30)
    r[0] = top
    frac = rng.choice([0.0, 2.0**-20, 0.5, 1.0 - 2.0**-20], size=r.shape)
    frac[1] = 0.0  # one row of exact integers
    quot = r + frac
    assert (np.floor(quot) == r).all() and quot.max() >= top
    states = _chain_states(quot.T)
    narrow = np.int16 if top < 2**15 - width else np.int32 if top < 2**31 - width else np.int64
    assert states.dtype == narrow and states.shape == (width, 30)
    assert np.array_equal(states.T, _leftward_chains(r))
    assert _narrow_skips(quot, width).dtype == narrow
    assert np.array_equal(_narrow_skips(quot, width), r)


@pytest.mark.parametrize("top", [2**15 - 9, 2**15 - 8, 2**31 - 8, 2**31 + 0.5])
def test_chain_states_of_a_clipped_gather_are_each_words_letters(top):
    # the interlacing kernel's input form: each word's skips gathered from
    # one run of quotients at its start offset, np.take clipping the last
    # word's letters past the end to the last quotient; every letter up to
    # a word's need is the q-shuffle letter of that word's own skips
    rng = np.random.default_rng(23)
    need = np.array([3, 8, 1, 5, 8, 2])
    width = int(need.max())
    quot = rng.integers(0, 6, size=int(need.sum())) + rng.choice([0.0, 0.25, 0.75], need.sum())
    quot[4] = top  # a letter of the second word, at a dtype switch
    start = np.cumsum(need) - need
    at = np.arange(width)[:, None] + start
    assert (at[:, -1] >= quot.size).sum() == width - need[-1]  # one clipped column
    states = _chain_states(np.take(_narrow_skips(quot, width), at, mode="clip"))
    floors = np.floor(quot).astype(np.int64)
    assert np.array_equal(states.T, _leftward_chains(floors[np.minimum(at, quot.size - 1)].T))
    for w, (s0, n) in enumerate(zip(start, need)):
        letters = 1 + states[:n, w]
        assert letters.tolist() == list(_pop_letters(floors[s0 : s0 + n].tolist()))


@pytest.mark.parametrize("width", [1, 3, 64])
def test_signed_letters_at_the_int16_top_are_the_window_rule(width):
    # the interlacing kernel's fill: a block's letters x words states,
    # plus words then minus words, signed in place and gathered at one
    # flat index per slot, give what np.where(plus, got + 1, -got) does;
    # skips at _narrow_skips' int16 top keep the states int16, the last
    # letter of words 0 and nb ending at 2^15 - 2, one below the maximum
    nb, top = 40, 2**15 - width - 1
    rng = np.random.default_rng(31)
    skips = rng.integers(0, 6, size=(width, 2 * nb))
    skips[rng.integers(0, width, size=2 * nb), np.arange(2 * nb)] = top - rng.integers(0, 3, 2 * nb)
    skips[:, [0, nb]] = 0
    skips[-1, [0, nb]] = top
    chains = _chain_states(skips)
    assert _narrow_skips(skips, width).dtype == chains.dtype == np.int16
    assert int(chains.max()) + 1 == 2**15 - 1 == np.iinfo(np.int16).max
    plus = rng.random((7, nb)) < 0.5
    at = rng.integers(0, width, size=plus.shape) * 2 * nb + np.arange(nb) + nb * ~plus
    got = np.take(chains, at).astype(np.int64)
    want = np.where(plus, got + 1, -got)
    signed = _signed_letters(chains, nb)
    assert signed.dtype == np.int16 and np.array_equal(np.take(signed, at), want)


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

