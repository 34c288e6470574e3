"""Brute-force finite oracle: the exact pmf on S_n by full enumeration.

Independent of the samplers and of the closed-form evaluators — inversions
are counted by direct pair comparison and the normalizer is the q-factorial
— so it can sit on the other side of statistical comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import chain, permutations

import numpy as np

from .errors import DomainError, TooLargeError
from .qseries import QParam, q_factorial

#: Enumeration budget: 8! = 40320 permutations.
MAX_ORACLE_N = 8


@dataclass(frozen=True)
class OraclePmf:
    """Exact law on S_n: word string (e.g. "312") -> probability, with the
    words in lexicographic order."""

    probs: dict[str, float]

    def prob(self, word: str) -> float:
        return self.probs.get(word, 0.0)


def oracle_enumerate(n: int, p: QParam) -> OraclePmf:
    """Enumerate S_n and return the exact pmf q^inv(sigma) / [n!]_q.

    >>> pmf = oracle_enumerate(2, QParam(0.5))
    >>> round(pmf.prob("12"), 10), round(pmf.prob("21"), 10)
    (0.6666666667, 0.3333333333)
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > MAX_ORACLE_N:
        raise TooLargeError(
            f"enumeration of S_{n} exceeds the budget (n <= {MAX_ORACLE_N})"
        )
    norm = q_factorial(n, p)
    words, inv = _words(n)
    q = p.q
    # one division per inversion count: the same floats as q**inv / norm word by word
    probs = [q**k / norm for k in range(n * (n - 1) // 2 + 1)]
    return OraclePmf(probs=dict(zip(words, map(probs.__getitem__, inv))))


@cache
def _words(n: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The word strings of S_n in lexicographic order and their inversion
    counts, counted pair by pair.  Independent of q, so built once per n."""
    # one row per permutation, in lexicographic order
    sigma = np.fromiter(chain.from_iterable(permutations(range(1, n + 1))), np.int64)
    sigma = sigma.reshape(-1, n)
    inv = np.zeros(len(sigma), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            inv += sigma[:, i] > sigma[:, j]
    # the same order as permutations of the letters (n <= 9: one character each)
    words = tuple(map("".join, permutations("123456789"[:n])))
    return words, tuple(inv.tolist())
