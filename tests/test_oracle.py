"""The enumeration oracle against hand values and the test-side brute force."""
from __future__ import annotations

import itertools
import math
import random

import pytest

import oracles
from mallows.errors import DomainError, TooLargeError
from mallows.oracle import MAX_ORACLE_N, oracle_enumerate
from mallows.qseries import QParam, q_factorial


def test_n2_by_hand():
    pmf = oracle_enumerate(2, QParam(0.5))
    assert pmf.prob("12") == pytest.approx(2 / 3, rel=1e-14)
    assert pmf.prob("21") == pytest.approx(1 / 3, rel=1e-14)


def test_n3_reversal_by_hand():
    # q^3 / [3!]_q = 0.125 / (1 * 1.5 * 1.75)
    pmf = oracle_enumerate(3, QParam(0.5))
    assert pmf.prob("321") == pytest.approx(0.125 / 2.625, rel=1e-14)


def test_normalization_small_n_grid():
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n in range(1, 6):
            pmf = oracle_enumerate(n, QParam(q))
            assert sum(pmf.probs.values()) == pytest.approx(1.0, abs=1e-12), (
                f"n={n} q={q}"
            )


def test_normalization_large_n_spot():
    for n in (7, 8):
        pmf = oracle_enumerate(n, QParam(0.5))
        assert len(pmf.probs) == math.factorial(n)
        assert sum(pmf.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_identity_is_the_mode():
    for n in (2, 4, 6):
        pmf = oracle_enumerate(n, QParam(0.4))
        identity = "".join(str(v) for v in range(1, n + 1))
        best = max(pmf.probs, key=pmf.probs.get)
        assert best == identity


def test_matches_test_side_brute_force():
    for n in (2, 3, 4, 5):
        q = 0.6
        pmf = oracle_enumerate(n, QParam(q))
        brute = oracles.brute_pmf(n, q)
        for word, want in brute.items():
            key = "".join(str(v) for v in word)
            assert pmf.prob(key) == pytest.approx(want, rel=1e-12), f"{key}"


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9, 0.999])
def test_words_in_lexicographic_order_with_the_direct_floats(q):
    # the exchangeability and finite-oracle suites read the words in this
    # order, and the floats are q**inv / [n!]_q with inv counted pair by pair
    p = QParam(q)
    for n in range(1, 8):
        norm = q_factorial(n, p)
        want = {
            "".join(map(str, sigma)): q ** oracles.count_inversions(sigma) / norm
            for sigma in itertools.permutations(range(1, n + 1))
        }
        assert list(oracle_enumerate(n, p).probs.items()) == list(want.items()), f"n={n}"


def test_left_walk_gives_the_pair_left_counts():
    # the chain from r_i over the right counts left of i, nearest first,
    # counts exactly the larger values left of i
    words = list(itertools.permutations(range(1, 6)))
    rng = random.Random(41)
    words += [rng.sample(range(1, n + 1), n) for n in range(1, 41) for _ in range(5)]
    for word in words:
        r, ell = oracles.pair_counts(word)
        walked = tuple(oracles.left_walk(r[:i][::-1], r[i])[0] for i in range(len(word)))
        assert walked == ell, word


def test_unknown_word_has_zero_prob():
    pmf = oracle_enumerate(3, QParam(0.5))
    assert pmf.prob("999") == 0.0


def test_budget_enforced():
    with pytest.raises(TooLargeError):
        oracle_enumerate(MAX_ORACLE_N + 1, QParam(0.5))


def test_below_the_domain_is_a_domain_error():
    # n = 0 is no request past the budget, but a count below its domain
    with pytest.raises(DomainError, match="n must be >= 1"):
        oracle_enumerate(0, QParam(0.5))
