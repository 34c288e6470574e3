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
probability, because data arbitrarily far to the left can still contribute;
see reconstruct_ell.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    DomainError,
    NotCertifiedError,
    NotInjectiveError,
    NotSelfContainedError,
    RejectSupportError,
)
from .qseries import QParam

VERDICT_CONSISTENT = "CONSISTENT"
VERDICT_SUSPECT = "SUSPECT"
VERDICT_INVALID = "INVALID"


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

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    @property
    def self_contained(self) -> bool:
        return set(self.values) == set(range(self.lo, self.hi + 1))

    def value_at(self, i: int) -> int:
        if not (self.lo <= i <= self.hi):
            raise IndexError(f"position {i} outside window [{self.lo}..{self.hi}]")
        return self.values[i - self.lo]

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "values": list(self.values)}

    @classmethod
    def from_json(cls, obj: dict | str) -> "PermWindow":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(lo=int(obj["lo"]), hi=int(obj["hi"]),
                   values=tuple(int(v) for v in obj["values"]))


@dataclass(frozen=True)
class InversionCounts:
    """Right and (certified) left inversion counts over a window.

    When every entry of ell_certified is true and residual_bound is 0 the
    counts reproduce the window exactly through sigma(i) = i + r[i] - l[i].
    Otherwise residual_bound bounds the total probability (union bound over
    positions) that any left count would still grow given more data.
    """

    lo: int
    hi: int
    r: tuple[int, ...]
    ell: tuple[int, ...]
    ell_certified: tuple[bool, ...]
    residual_bound: float

    def __post_init__(self) -> None:
        width = self.hi - self.lo + 1
        for name in ("r", "ell", "ell_certified"):
            if len(getattr(self, name)) != width:
                raise ValueError(f"{name} must have length {width}")
        if not self.residual_bound >= 0.0:
            raise ValueError(f"residual_bound must be >= 0, got {self.residual_bound!r}")

    def to_json(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "r": list(self.r),
            "ell": list(self.ell),
            "certified": list(self.ell_certified),
            "residual": repr(self.residual_bound),
        }

    @classmethod
    def from_json(cls, obj: dict | str) -> "InversionCounts":
        if isinstance(obj, str):
            obj = json.loads(obj)
        return cls(
            lo=int(obj["lo"]),
            hi=int(obj["hi"]),
            r=tuple(int(v) for v in obj["r"]),
            ell=tuple(int(v) for v in obj["ell"]),
            ell_certified=tuple(bool(v) for v in obj["certified"]),
            residual_bound=float(obj["residual"]),
        )


@dataclass(frozen=True)
class OrderDiagnostic:
    """Window-level balance diagnostic.

    balance_estimate = #{i >= 1 : sigma(i) <= 0} - #{i <= 0 : sigma(i) >= 1},
    counted inside the window.  admissible_hint is true when both counts are
    unchanged by shrinking the window one step on each side, i.e. the window
    appears wide enough that the estimate has stabilized; balance_estimate is
    only meaningful in that case.  stable_from reports the leftmost position
    still contributing to either count (0 when none does).
    """

    admissible_hint: bool
    balance_estimate: int
    stable_from: int


@dataclass(frozen=True)
class RWindowReport:
    """Outcome of validate_r_window; see that function for the verdict policy."""

    lo: int
    hi: int
    zero_positions: tuple[int, ...]
    counts: InversionCounts
    verdict: str


def inversions(values: Sequence[int]) -> int:
    """Total number of inversions of a finite word (direct pair count)."""
    n = len(values)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if values[i] > values[j]
    )


def inversion_counts_window(w: PermWindow) -> InversionCounts:
    """Intra-window right/left counts; exact for self-contained windows."""
    vals = w.values
    n = len(vals)
    r = tuple(
        sum(1 for j in range(i + 1, n) if vals[j] < vals[i]) for i in range(n)
    )
    ell = tuple(sum(1 for j in range(i) if vals[j] > vals[i]) for i in range(n))
    return InversionCounts(
        lo=w.lo,
        hi=w.hi,
        r=r,
        ell=ell,
        ell_certified=(True,) * n,
        residual_bound=0.0,
    )


def _pop_letters(r: Sequence[int]) -> tuple[int, ...]:
    """Word whose letter i is the (r_i+1)-th smallest positive integer not
    used yet: the q-shuffle rule, and elimination where r_i <= n-1-i."""
    # the unused values in decreasing order, so each pop is near the end
    unused = list(range(len(r) + max(r, default=0), 0, -1))
    return tuple(unused.pop(-1 - ri) for ri in r)


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


def reconstruct_ell(
    r_window: Sequence[int],
    lo: int,
    j: int,
    p: QParam,
    eps_tv: float,
    extend: Callable[[], int] | None = None,
) -> tuple[int, bool, float]:
    """Left count at position j from right counts on [lo..j] and beyond.

    Runs the leftward chain: state x starts at r[j]; visiting index i with
    right count r_i, either r_i > x (a left inversion of j: count it, state
    unchanged) or r_i <= x (state increments).  Under geometric data the
    probability that any index left of the current one still contributes is
    at most q^(x+1)/(1-q), so the chain stops once that bound drops to
    eps_tv (_chain_horizon).  All values inside the window are consumed
    exactly; the bound only governs how far `extend` (drawing r values for
    lo-1, lo-2, ...) is consulted.  Without a callback the result may come
    back uncertified (certified=False, residual > eps_tv).
    """
    if not lo <= j < lo + len(r_window):
        raise ValueError("j outside the provided window")
    q = p.q
    xstar = _chain_horizon(q, eps_tv)
    x = int(r_window[j - lo])
    ell = 0
    for i in range(j - 1, lo - 1, -1):
        if r_window[i - lo] > x:
            ell += 1
        else:
            x += 1
    if extend is not None:
        while x < xstar:
            if extend() > x:
                ell += 1
            else:
                x += 1
    return ell, x >= xstar, q ** (x + 1) / (1.0 - q)


def rebuild_sigma(ic: InversionCounts) -> PermWindow:
    """Window values via sigma(i) = i + r[i] - l[i]; requires certified counts."""
    if not all(ic.ell_certified):
        raise NotCertifiedError(
            "cannot rebuild from uncertified left counts "
            f"(residual bound {ic.residual_bound!r})"
        )
    vals = tuple(
        (ic.lo + k) + ic.r[k] - ic.ell[k] for k in range(ic.hi - ic.lo + 1)
    )
    if len(set(vals)) != len(vals):
        raise NotInjectiveError(
            "rebuilt values collide; the r-sequence is not realizable"
        )
    return PermWindow(lo=ic.lo, hi=ic.hi, values=vals)


def adjacent_swap_r(r_i: int, r_next: int) -> tuple[int, int]:
    """Effect of swapping the values at two adjacent positions on (r_i, r_{i+1}).

    (a, b) -> (b+1, a) when a <= b (the swap creates an inversion, total +1),
    else (a, b) -> (b, a-1) (it removes one).  Applying the appropriate
    opposite branch restores the input.
    """
    if r_i <= r_next:
        return r_next + 1, r_i
    return r_next, r_i - 1


def window_balance(w: PermWindow) -> OrderDiagnostic:
    """Balance diagnostic: positive-to-negative minus negative-to-positive rank.

    Counts, inside the window, how many positions i >= 1 carry values <= 0
    and how many positions i <= 0 carry values >= 1; the difference is the
    balance.  A shift sigma(i) = i - b shows balance b on any window
    containing [1..b].
    """
    neg_to_pos = [i for i in range(w.lo, min(w.hi, 0) + 1) if w.value_at(i) >= 1]
    pos_to_neg = [i for i in range(max(w.lo, 1), w.hi + 1) if w.value_at(i) <= 0]
    balance = len(pos_to_neg) - len(neg_to_pos)
    edge_contributes = (w.lo in neg_to_pos) or (w.hi in pos_to_neg)
    contributors = neg_to_pos + pos_to_neg
    return OrderDiagnostic(
        admissible_hint=not edge_contributes,
        balance_estimate=balance,
        stable_from=min(contributors) if contributors else 0,
    )


def truncate(w: PermWindow, lo: int, hi: int) -> PermWindow:
    """Order-isomorphic finite permutation of [lo..hi] induced by the window.

    The values sigma(i), i in [lo..hi], are replaced by their increasing
    relabeling onto lo..hi, so the relative order is preserved exactly.
    """
    if not (w.lo <= lo <= hi <= w.hi):
        raise ValueError("truncation interval must lie inside the window")
    sub = [w.value_at(i) for i in range(lo, hi + 1)]
    rank = {v: k for k, v in enumerate(sorted(sub))}
    return PermWindow(lo=lo, hi=hi, values=tuple(lo + rank[v] for v in sub))


def invert_window(w: PermWindow) -> PermWindow:
    """Inverse permutation on the same interval (self-contained windows only)."""
    if not w.self_contained:
        raise NotSelfContainedError(
            "inverse is not computable from a window whose values leave it"
        )
    vals = [0] * w.width
    for i in range(w.lo, w.hi + 1):
        vals[w.value_at(i) - w.lo] = i
    return PermWindow(lo=w.lo, hi=w.hi, values=tuple(vals))


def validate_r_window(
    r_window: Sequence[int], lo: int, p: QParam, eps_tv: float
) -> RWindowReport:
    """Consistency report for a window of right counts.

    Verdict policy (evidence-based): the window is SUSPECT when some
    leftward chain records a left-count increment at a state the model
    deems essentially impossible — a draw exceeding x when the remaining
    increment probability q^(x+1)/(1-q) is already below eps_tv.  Genuine
    geometric data triggers this with probability at most about
    width^2 * eps_tv, so valid windows are CONSISTENT with probability
    tending to 1 as eps_tv shrinks, while divergent-left-count patterns
    (left counts that keep growing ever deeper into the window) become
    SUSPECT once the window is wide enough to expose them.

    Absent such evidence the window rebuilds via sigma(i) = i + r_i - l_i,
    where the l_i are exact for the completion of the window by zeros;
    value collisions would mean no permutation has these counts (INVALID,
    unreachable for nonnegative data since the zero completion always
    defines a permutation, kept as a defensive branch), otherwise the
    window is CONSISTENT.  Positions with r = 0 are reported as a density
    proxy for the tail condition that valid data must satisfy (r must
    vanish infinitely often); a finite window can support but never refute
    that condition.  The per-position certification flags carry the
    reconstruct_ell residual semantics and are diagnostic only.
    """
    if any(v < 0 for v in r_window):
        raise DomainError("right counts must be nonnegative")
    q = p.q
    xstar = _chain_horizon(q, eps_tv)
    n = len(r_window)
    hi = lo + n - 1
    zeros = tuple(lo + k for k in range(n) if r_window[k] == 0)
    ell, certified, residuals = [], [], []
    flagged = False
    for j in range(lo, hi + 1):
        # reconstruct_ell's chain, watching for increments past the horizon
        x = int(r_window[j - lo])
        lj = 0
        for i in range(j - 1, lo - 1, -1):
            if r_window[i - lo] > x:
                lj += 1
                flagged = flagged or x >= xstar
            else:
                x += 1
        ell.append(lj)
        certified.append(x >= xstar)
        residuals.append(q ** (x + 1) / (1.0 - q))
    counts = InversionCounts(
        lo=lo,
        hi=hi,
        r=tuple(int(v) for v in r_window),
        ell=tuple(ell),
        ell_certified=tuple(certified),
        residual_bound=sum(residuals),
    )
    if flagged:
        verdict = VERDICT_SUSPECT
    else:
        values = [lo + k + r_window[k] - ell[k] for k in range(n)]
        verdict = (
            VERDICT_CONSISTENT if len(set(values)) == n else VERDICT_INVALID
        )
    return RWindowReport(
        lo=lo, hi=hi, zero_positions=zeros, counts=counts, verdict=verdict
    )
