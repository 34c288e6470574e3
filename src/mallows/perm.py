"""Permutation windows and inversion-count codecs.

A *window* is the restriction of a permutation of the integers to a finite
interval of positions.  The codec layer converts between windows and their
inversion-count coordinates:

    r[i] = #{ j > i : sigma(j) < sigma(i) }     (right count)
    l[i] = #{ j < i : sigma(j) > sigma(i) }     (left count)

For words of {1..n} the right counts determine the word via the elimination
algorithm (pick the (r+1)-th smallest remaining value), and symmetrically for
left counts built right to left.  For two-sided windows the identity

    sigma(i) = i + r[i] - l[i]

rebuilds values, but the left counts are only *certifiable* up to a residual
probability, because data arbitrarily far to the left can still contribute:
under geometric data a chain at state x meets a later left inversion with
probability at most q^(x+1)/(1-q), and _chain_horizon is where that bound
reaches eps_tv.

Left counts and q-shuffle letters come from one leftward chain.  Entry j of
a row r_0, r_1, ... has state x_j, which starts at r_j, meets r_{j-1}, ...,
r_0 and steps by one where r_k <= x_j.  For right counts on positions lo,
lo+1, ... a right count above the state is a left inversion, so
ell_j = (j - lo) - (x_j - r_j).  For skips R, letter j of the q-shuffle (the
(R_j+1)-th smallest positive integer not used yet) is 1 + x_j: removing an
earlier letter drops letter j's rank by one exactly when that letter lies
below it, i.e. when R_k + 1 is at most the rank after the removal, so each
step undoes one removal.  _leftward_chains runs the chain on arrays;
_pop_letters (one word) is its scalar twin.

truncate and invert_window take windows one per row of an array, as the
batch samplers return them.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NotSelfContainedError, RejectSupportError


@dataclass(frozen=True)
class PermWindow:
    """Values sigma(lo), ..., sigma(hi) of an integer permutation.

    values[k] = sigma(lo + k).  Values must be pairwise distinct but need not
    lie inside [lo..hi]; when they do, the window is *self-contained* and
    behaves exactly like a finite permutation of that interval.
    """

    lo: int
    hi: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError("window requires lo <= hi")
        width = self.hi - self.lo + 1
        if len(self.values) != width:
            raise ValueError(f"expected {width} values, got {len(self.values)}")
        if len(set(self.values)) != width:
            raise ValueError("window values must be pairwise distinct")
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))


def inversions(values: Sequence[int]) -> int:
    """Total number of inversions of a finite word (direct pair count)."""
    n = len(values)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if values[i] > values[j]
    )


def _pop_letters(r: Sequence[int]) -> tuple[int, ...]:
    """Word whose letter i is the (r_i+1)-th smallest positive integer not
    used yet: the q-shuffle rule, and elimination where r_i <= n-1-i.

    Only 1..n are listed.  A letter past them is the (m+1)-th smallest
    unused value above n, m = r_i - #unused in 1..n: x + k with x = n+1+m
    and k the fewest earlier letters above n such that exactly k of them
    are <= x + k, found by counting until the count stops growing.
    """
    n = len(r)
    # the unused values in decreasing order, so each pop is near the end
    unused = list(range(n, 0, -1))
    above: list[int] = []  # the letters above n, increasing
    word = []
    for ri in r:
        if ri < len(unused):
            word.append(unused.pop(-1 - ri))
            continue
        x, k = n + 1 + ri - len(unused), 0
        while (j := bisect_right(above, x + k)) > k:
            k = j
        above.insert(k, x + k)
        word.append(x + k)
    return tuple(word)


def eliminate_right(r: Sequence[int]) -> PermWindow:
    """Unique word of {1..n} whose right counts are r (elimination algorithm).

    >>> eliminate_right((2, 0, 0, 0)).values
    (3, 1, 2, 4)
    """
    n = len(r)
    for i, ri in enumerate(r):
        if not 0 <= ri <= n - i - 1:
            raise RejectSupportError(
                f"r[{i}] = {ri} outside truncated-geometric support 0..{n - i - 1}"
            )
    return PermWindow(lo=1, hi=n, values=_pop_letters(r))


def eliminate_left(ell: Sequence[int]) -> PermWindow:
    """Unique word of {1..n} with left counts ell.

    The left counts of w are the right counts, read backwards, of its
    reflection i -> n+1-i, v -> n+1-v, so w is the reflected
    eliminate_right(ell[::-1]).  Support is checked from the right, the
    order in which the word is built.

    >>> eliminate_left((0, 1, 1, 0)).values
    (3, 1, 2, 4)
    """
    n = len(ell)
    for i in range(n - 1, -1, -1):
        if not 0 <= ell[i] <= i:
            raise RejectSupportError(f"ell[{i}] = {ell[i]} outside support 0..{i}")
    word = eliminate_right(ell[::-1]).values
    return PermWindow(lo=1, hi=n, values=tuple(n + 1 - v for v in reversed(word)))


def _chain_horizon(q: float, eps_tv: float) -> int:
    """Smallest state x >= 0 with q^(x+1)/(1-q) <= eps_tv, where every
    leftward chain stops.  The log estimate can land one past it where the
    bound meets eps_tv exactly, so it is stepped to that state."""
    if not 0.0 < eps_tv < math.inf:
        raise DomainError(f"eps_tv must be finite and > 0, got {eps_tv!r}")
    tail = eps_tv * (1.0 - q)
    if tail == 0.0:
        raise DomainError(f"eps_tv * (1-q) underflows to 0 at eps_tv={eps_tv!r}")
    x = max(0, math.ceil(math.log(tail) / math.log(q) - 1.0))
    while x > 0 and q**x / (1.0 - q) <= eps_tv:
        x -= 1
    while q ** (x + 1) / (1.0 - q) > eps_tv:
        x += 1
    return x


def _leftward_chains(r: np.ndarray) -> np.ndarray:
    """Final state of the leftward chain (see the module docstring) of
    every entry of a rows x width matrix, in width-1 array steps over an
    entry-major copy: at offset t, entries t, t+1, ... meet the t before."""
    width = r.shape[1]
    start = np.ascontiguousarray(r.T)
    x = start.copy()
    for t in range(1, width):
        x[t:] += start[:-t] <= x[t:]
    return x.T


def adjacent_swap_r(r_i: int, r_next: int) -> tuple[int, int]:
    """Effect of swapping the values at two adjacent positions on (r_i, r_{i+1}).

    (a, b) -> (b+1, a) when a <= b (the swap creates an inversion, total +1),
    else (a, b) -> (b, a-1) (it removes one).  Applying the appropriate
    opposite branch restores the input.
    """
    if r_i <= r_next:
        return r_next + 1, r_i
    return r_next, r_i - 1


def truncate(w: np.ndarray, lo: int, sub_lo: int, sub_hi: int) -> np.ndarray:
    """Each row of w, a window on positions lo, lo+1, ..., truncated to
    [sub_lo..sub_hi]: the order-isomorphic permutation of that interval.

    A row's values at sub_lo..sub_hi are relabeled by rank onto
    sub_lo..sub_hi, so their relative order is kept exactly.
    """
    hi = lo + w.shape[1] - 1
    if not lo <= sub_lo <= sub_hi <= hi:
        raise DomainError(f"[{sub_lo}..{sub_hi}] must lie inside the window [{lo}..{hi}]")
    order = np.argsort(w[:, sub_lo - lo : sub_hi - lo + 1], axis=1)
    # the value of rank k goes back to where it was: one sort and a scatter
    out = np.empty_like(order)
    np.put_along_axis(out, order, np.arange(sub_lo, sub_hi + 1), axis=1)
    return out


def invert_window(w: np.ndarray, lo: int) -> np.ndarray:
    """The inverse permutation of each row of w, a window on positions lo,
    lo+1, ...: where row k holds v at position i, the result holds i at v.

    Only a self-contained row (its values are its positions) has its
    inverse inside the window; any other row raises NotSelfContainedError.
    """
    order = np.argsort(w, axis=1)
    if not (np.take_along_axis(w, order, axis=1) == np.arange(lo, lo + w.shape[1])).all():
        raise NotSelfContainedError(
            "inverse is not computable from a window whose values leave it"
        )
    return lo + order

