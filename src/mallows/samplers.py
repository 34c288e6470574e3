"""Seeded samplers: finite Mallows words, the one-sided q-shuffle, the Euler
partition measure on Young diagrams, and two independent two-sided window
samplers.

The two-sided samplers are the heart of the package:

* ``sample_two_sided_interlacing`` is the *exact* reference sampler.  It draws
  a Young diagram lambda with P(lambda) proportional to q^|lambda|, turns it
  into the +-1 sign word interleaving positive and non-positive values, and
  fills the signs with two independent one-sided q-shuffles.  The returned
  window is an exact draw of the two-sided law restricted to the window.
  Its slots and letter counts all come from one walk over the + positions
  {k - lambda_k} (``_plus_positions``): the number C(i) of - positions
  above i is #(+ <= i) - i.
* ``sample_two_sided_inversion`` draws i.i.d. geometric right counts and
  rebuilds values through sigma(i) = i + r_i - l_i, reconstructing each left
  count by the leftward chain with a total-variation stopping budget; its
  window law is within (window width) * eps_tv of exact.  It exists to
  cross-validate the interlacing construction and is checked against it in
  the verification suites.

``batch_*`` functions are vectorized Monte Carlo kernels producing the same
laws at acceptance-test sample sizes.

``batch_finite_words`` and ``batch_shuffle_prefixes`` are
``sample_finite_mallows`` and ``q_shuffle_prefix`` on count rows at once:
they draw what count successive scalar calls draw, in the same order and in
one call, and build the words by ``perm._leftward_chains``, so they
return the same rows and leave the same ``counter``.  ``batch_finite_r`` is
the right counts behind ``batch_finite_words``.

``batch_inversion_windows`` is the one implementation of the inversion
route: all rows' right counts in one call, the in-window chains by
``perm._leftward_chains``, then rounds of left draws over the rows whose
lowest chain is still short of eps_tv.  ``sample_two_sided_inversion`` is
its count=1 case and ``batch_inversion_position0`` its [0..0] case, so both
return what the kernel returns for the same stream.

``batch_interlacing_windows`` is the scalar interlacing sampler run on a
block of rows at once: the diagrams come from the part-size search of
``sample_young_euler`` applied to every row still drawing
(``_diagram_triples``), then exactly the shuffle skips the rows need are
drawn in one call, and the sign-word slots (``_sign_counts``, the + position
rule of ``_plus_positions``), the letters (``perm._leftward_chains``) and
the window fill run on arrays.  At count=1 it draws the same uniforms in the
same order as ``sample_two_sided_interlacing`` and returns the same window.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NotInjectiveError
from .perm import PermWindow, _chain_horizon, _leftward_chains, _pop_letters, eliminate_right
from .qseries import QParam, normal_table
from .streams import GeomStream


def _check_stream(p: QParam, s: GeomStream) -> None:
    if s.q != p.q:
        raise DomainError(
            f"stream ratio {s.q} does not match parameter q={p.q}"
        )


def _check_window(lo: int, hi: int) -> None:
    """Refuse a window [lo..hi] that is empty or has an endpoint outside
    [-2^62, 2^62], where the int64 positions, slots and values could wrap."""
    if hi < lo:
        raise DomainError("window requires lo <= hi")
    if not (-(2**62) <= lo and hi <= 2**62):
        raise DomainError(f"window endpoints must lie in [-2**62, 2**62], got {lo}:{hi}")


@dataclass(frozen=True)
class YoungDiagram:
    """Partition as a weakly decreasing tuple of positive part sizes."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(x <= 0 for x in self.parts):
            raise ValueError("parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be weakly decreasing")


# --------------------------------------------------------------------------
# one-sided building blocks
# --------------------------------------------------------------------------

def sample_finite_mallows(n: int, p: QParam, s: GeomStream) -> PermWindow:
    """Word of {1..n} with P(sigma) = q^inv(sigma) / [n!]_q.

    Applies the elimination algorithm to batch_finite_r's one row of
    truncated-geometric right counts (limit n-i at position i).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    return eliminate_right(batch_finite_r(n, p, s, 1)[0].tolist())


def q_shuffle_prefix(n_letters: int, p: QParam, s: GeomStream) -> tuple[int, ...]:
    """First n_letters letters of the one-sided word.

    Letter i is the (R_i+1)-th smallest positive integer not used yet, with
    R_i i.i.d. geometric; the prefix is an exact marginal of the one-sided
    law (generation is sequential, no truncation error).
    """
    if n_letters < 1:
        raise DomainError("n_letters must be >= 1")
    _check_stream(p, s)
    return _pop_letters(s.geometrics(n_letters).tolist())


# --------------------------------------------------------------------------
# Young diagrams under the Euler measure
# --------------------------------------------------------------------------

def _part_search(p: QParam) -> tuple[list[float], list[float]]:
    """(-<j>_q, q^j) for j = 0..N, N the depth of p's Pochhammer table.

    The search compares U <b>_q with <j>_q down to <N>_q ~ <inf>_q, so it
    is refused where <inf>_q is not a normal double (from q ~ 0.9977).
    The tables are cached by (q, eps_series), so the cache keeps no
    parameter object (nor its memo) alive.
    """
    return _part_tables(p.q, p.eps_series)


@lru_cache(maxsize=None)
def _part_tables(q: float, eps_series: float) -> tuple[list[float], list[float]]:
    table = normal_table(QParam(q, eps_series), "Euler-measure diagrams cannot be drawn")
    return [-v for v in table.values], [q**j for j in range(len(table.values))]


def sample_young_euler(p: QParam, s: GeomStream) -> YoungDiagram:
    """Diagram with P(lambda) = <inf>_q * q^|lambda| — Euler's measure.

    The multiplicity of part size k is geometric with ratio q^k,
    independently over k, so given no part in 1..b the next part size J
    has P(J > j) = <j>_q / <b>_q.  One uniform U gives
    J = min{j > b : <j>_q < U <b>_q}; where there is none the diagram is
    complete, which has probability <inf>_q / <b>_q (up to the relative
    error eps_series of the table's last entry).  Otherwise J has
    multiplicity 1 + geometric(q^J) and the search goes on from b = J.
    Part sizes increase strictly and stay below the table length, so the
    loop ends.  Draws: one uniform per distinct part size plus one that
    ends the diagram, and one geometric per multiplicity;
    _diagram_triples runs the same rounds over many rows.  Raises
    DomainError where <inf>_q is not a normal double (q >~ 0.9977).
    """
    _check_stream(p, s)
    neg, qpow = _part_search(p)
    parts: list[int] = []
    b = 0
    while (j := bisect_right(neg, s.uniform() * neg[b], b + 1)) < len(neg):
        parts.extend([j] * (1 + int(s.geometrics(1, qpow[j])[0])))
        b = j
    return YoungDiagram(tuple(reversed(parts)))


def _plus_positions(parts: tuple[int, ...], hi: int) -> list[int]:
    """The + positions k - lambda_k <= hi of the sign word, in rank order.

    k - lambda_k increases strictly with k, so entry k-1 is the position of
    rank k; past the last part lambda_k = 0 and the positions run
    len(parts)+1, len(parts)+2, ...
    """
    plus = [k - x for k, x in enumerate(parts, 1) if k - x <= hi]
    plus.extend(range(len(parts) + 1, hi + 1))
    return plus


# --------------------------------------------------------------------------
# two-sided samplers
# --------------------------------------------------------------------------

def sample_two_sided_interlacing(
    lo: int, hi: int, p: QParam, s: GeomStream
) -> PermWindow:
    """Exact window of the two-sided law via the interlacing construction.

    Samples lambda, derives which window positions carry positive values,
    generates exactly as many letters of the positive word w+ (q-shuffle)
    and of the non-positive word w- (an independent q-shuffle reflected by
    i -> 1-i on positions and values, which preserves the inversion
    structure), and fills the window: +1 slots take w+ letters left to
    right, -1 slots take w- letters right to left.  No truncation error.

    Every count comes from one walk over the + positions <= hi
    (_plus_positions): kmax of them need w+ letters.  The word has i more
    + positions <= i than - positions > i (true of the empty diagram, and
    each box swaps an adjacent (+,-) pair, which keeps it), so C(i) =
    #(+ <= i) - i counts the - positions above i.  The - positions >= lo
    need tmax = C(lo-1) w- letters; those above the window take the first
    C(hi) = kmax - hi of them.
    """
    _check_window(lo, hi)
    _check_stream(p, s)
    lam = sample_young_euler(p, s)
    plus = _plus_positions(lam.parts, hi)
    kmax = len(plus)
    first = bisect_left(plus, lo)  # rank - 1 of the first + slot in the window
    tmax = first - (lo - 1)
    # both words' skips in one call, the plus word first (the kernel's order)
    skips = s.geometrics(kmax + tmax).tolist()
    wp, u = _pop_letters(skips[:kmax]), _pop_letters(skips[kmax:])
    vals = [0] * (hi - lo + 1)
    k, t = kmax - 1, kmax - hi
    for i in range(hi, lo - 1, -1):
        if k >= first and plus[k] == i:
            vals[i - lo] = wp[k]
            k -= 1
        else:
            vals[i - lo] = 1 - u[t]
            t += 1
    return PermWindow(lo=lo, hi=hi, values=tuple(vals))


def sample_two_sided_inversion(
    lo: int, hi: int, p: QParam, s: GeomStream, eps_tv: float
) -> PermWindow:
    """Window of the two-sided law via i.i.d. geometric right counts.

    The count=1 case of batch_inversion_windows: left counts come from the
    leftward chains, all positions sharing one lazily drawn sequence of
    right counts to the left of the window; each chain stops once the
    probability of any further increment is <= eps_tv, so the window law is
    within (hi-lo+1)*eps_tv of exact in total variation (union bound).
    Truncation keeps the order of the values, so they never collide.
    """
    values, _ = batch_inversion_windows(lo, hi, p, s, 1, eps_tv)
    return PermWindow(lo=lo, hi=hi, values=tuple(values[0].tolist()))


# --------------------------------------------------------------------------
# batch kernels (vectorized Monte Carlo; same laws as the scalar samplers)
# --------------------------------------------------------------------------

def batch_finite_r(n: int, p: QParam, s: GeomStream, count: int) -> np.ndarray:
    """count x n matrix of independent truncated-geometric right counts.

    Column i (0-based) has support {0..n-1-i}; each row encodes one finite
    Mallows word, recoverable through eliminate_right.  All rows are drawn
    row by row in one call (the last column is 0 and draws nothing), so
    row k holds the right counts of the k-th of count successive
    sample_finite_mallows calls.
    """
    if n < 1 or count < 0:
        raise DomainError("need n >= 1 and count >= 0")
    _check_stream(p, s)
    out = np.zeros((count, n), dtype=np.int64)
    out[:, :-1] = s.truncated_geometrics(
        count * (n - 1), np.tile(np.arange(n - 1, 0, -1), count)
    ).reshape(count, n - 1)
    return out


def batch_finite_words(n: int, p: QParam, s: GeomStream, count: int) -> np.ndarray:
    """count x n matrix whose rows are what count successive
    sample_finite_mallows(n, p, s) calls return, from the same draws.

    Elimination takes the (r_i+1)-th smallest unused value, the q-shuffle
    rule, so the words are 1 + _leftward_chains of batch_finite_r.
    """
    return 1 + _leftward_chains(batch_finite_r(n, p, s, count))


def batch_shuffle_prefixes(n: int, p: QParam, s: GeomStream, count: int) -> np.ndarray:
    """count x n matrix whose rows are what count successive
    q_shuffle_prefix(n, p, s) calls return, from the same draws (all rows'
    geometric skips, row by row, in one call)."""
    if n < 1 or count < 0:
        raise DomainError("need n >= 1 and count >= 0")
    _check_stream(p, s)
    return 1 + _leftward_chains(s.geometrics(count * n).reshape(count, n))


def finite_r_codes(r_matrix: np.ndarray) -> np.ndarray:
    """Mixed-radix code of each row; a bijection onto 0..n!-1."""
    count, n = r_matrix.shape
    codes = np.zeros(count, dtype=np.int64)
    for i in range(n):
        codes = codes * (n - i) + r_matrix[:, i]
    return codes


def finite_code_to_r(code: int, n: int) -> tuple[int, ...]:
    """Inverse of finite_r_codes for a single code."""
    digits = []
    for i in range(n - 1, -1, -1):
        radix = n - i
        digits.append(code % radix)
        code //= radix
    return tuple(reversed(digits))


#: rows drawn and filled together; bounds the slot and letter arrays to a
#: few MB whatever the count
_BLOCK_ROWS = 2048


def batch_interlacing_windows(
    lo: int, hi: int, p: QParam, s: GeomStream, count: int
) -> np.ndarray:
    """count x width matrix of exact two-sided windows (interlacing law).

    Rows are made _BLOCK_ROWS at a time.  A block draws from s as
    sample_two_sided_interlacing does for each of its rows, in this order:
    the diagrams, by the rounds of the part-size search (_diagram_triples);
    then the shuffle skips, exactly as many as the rows have letters, in
    one s.geometrics call: each row's plus word in row order, then each
    row's minus word.  So at count=1 both samplers draw the same uniforms
    in the same order and return the same window (np.log and math.log of a
    multiplicity's ratio can differ in the last bit, which moves a draw
    only when its quotient lies within an ulp of an integer).  Then on arrays:

    * C(i) = #(+ <= i) - i for i in lo-1..hi counts the + positions
      k - lambda_k of _plus_positions, each row's parts ranked in triple
      order (_sign_counts).  Position i carries + with rank i + C(i) when
      C(i) = C(i-1), else - with rank C(i-1); the row needs kmax = hi +
      C(hi) plus and tmax = C(lo-1) minus letters;
    * the letters are 1 + _leftward_chains of the skips; a row's letters
      past its need are never read;
    * the window is filled by one gather from the entry-major chain states,
      at a flat index picked by sign: + slots take plus letters by rank,
      - slots take 1 - (minus letter) by rank from the right.
    """
    _check_window(lo, hi)
    if count < 0:
        raise DomainError("count must be >= 0")
    _check_stream(p, s)
    neg, qpow = (np.array(t) for t in _part_search(p))
    prev = np.arange(lo - 1, hi)  # i - 1 for each window position i
    out = np.empty((count, hi - lo + 1), dtype=np.int64)
    for b0 in range(0, count, _BLOCK_ROWS):
        nb = min(_BLOCK_ROWS, count - b0)
        row, part, mult = _diagram_triples(s, nb, neg, qpow)
        c = _sign_counts(row, part, mult, nb, lo, hi)
        # plus words in the top rows of one letter matrix, minus below
        need = np.concatenate((hi + c[:, -1], c[:, 0]))
        width = max(1, int(need.max()))
        skips = np.zeros((2 * nb, width), dtype=np.int64)
        skips[np.arange(width) < need[:, None]] = s.geometrics(int(need.sum()))
        # the chain states entry-major: letter k (0-based) of word w is
        # 1 + chains[k * 2nb + w], and each slot reads only the sign it takes
        chains = _leftward_chains(skips).T.reshape(-1)
        before, at = c[:, :-1], c[:, 1:]
        plus = at == before
        w = np.arange(nb)[:, None]
        got = chains[np.where(plus, (prev + at) * (2 * nb) + w, (before - 1) * (2 * nb) + nb + w)]
        out[b0 : b0 + nb] = np.where(plus, got + 1, -got)
    return out


def _diagram_triples(
    s: GeomStream, rows: int, neg: np.ndarray, qpow: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler-measure diagrams of `rows` >= 1 rows as int32 (row, part size,
    multiplicity) triples, sorted by row and then by decreasing part size.

    neg and qpow are _part_search's tables as arrays.  Each round, every
    row still drawing takes one uniform and finds its next part size by
    the search of sample_young_euler (one searchsorted), and the rows
    that found one draw its multiplicity in one s.geometrics call.  For a
    single row these are sample_young_euler's draws.
    """
    active = np.arange(rows)
    base = np.zeros(rows, dtype=np.int64)
    rounds = []
    while active.size:
        j = np.searchsorted(neg, s.uniforms(active.size) * neg[base], side="right")
        more = j < neg.size
        active, base = active[more], j[more]
        rounds.append((active, base, 1 + s.geometrics(active.size, ratio=qpow[base])))
    # later rounds hold larger parts, so with them first a stable sort by
    # row keeps each row's parts decreasing
    row, part, mult = (
        np.concatenate([r[i] for r in reversed(rounds)]).astype(np.int32) for i in range(3)
    )
    order = np.argsort(row, kind="stable")
    return row[order], part[order], mult[order]


def _sign_counts(
    row: np.ndarray, part: np.ndarray, mult: np.ndarray, nrows: int, lo: int, hi: int
) -> np.ndarray:
    """nrows x (hi-lo+2) matrix with C[r, i-lo+1] = #(+ <= i) - i for
    i = lo-1..hi, the diagrams given as triples sorted by row and then by
    decreasing part size.

    This is the rule of _plus_positions on arrays: with a row's parts
    lambda_1 >= ... >= lambda_L in triple order, part k sits at + position
    k - lambda_k, and the + positions past the parts are L+1, L+2, ..., so
    #(+ <= i) = #{k <= L : k - lambda_k <= i} + max(0, i - L).  C(i)
    counts the - positions above i.
    """
    ncols = hi - lo + 2
    nparts = np.bincount(row, weights=mult, minlength=nrows).astype(np.int64)
    # the parts one by one, in int32 like the triples (a deep row has tens
    # of parts): entry j of a row whose first entry is f has rank
    # k = j + 1 - f and col = k - lambda_k - (lo-1); column 0 also takes the
    # + positions below lo-1, and column ncols, dropped, those past hi
    first = (np.cumsum(nparts) - nparts + (lo - 1)).astype(np.int32)
    col = np.arange(1, int(nparts.sum()) + 1, dtype=np.int32) - np.repeat(first, nparts)
    col = np.clip(col - np.repeat(part, mult), 0, ncols)
    plus = np.bincount(np.repeat(row * (ncols + 1), mult) + col, minlength=nrows * (ncols + 1))
    below = np.cumsum(plus.reshape(nrows, ncols + 1)[:, :ncols], axis=1)
    i = np.arange(lo - 1, hi + 1)
    return below + np.maximum(0, i - nparts[:, None]) - i


def batch_inversion_windows(
    lo: int, hi: int, p: QParam, s: GeomStream, count: int, eps_tv: float
) -> tuple[np.ndarray, np.ndarray]:
    """(values, left counts): two count x width matrices of two-sided
    windows rebuilt from i.i.d. geometric right counts.

    Each position j runs the leftward chain of mallows.perm: state x starts
    at r_j and meets r_{j-1}, r_{j-2}, ...; a right count above x is a left
    inversion of j (ell_j += 1), otherwise x increments.  Inside the window
    the chains are exact: ell_j = (j - lo) - (x_j - r_j), x the states of
    _leftward_chains(r).  Left of the window the chains of a row share one
    lazily drawn sequence of right counts, and a chain stops once
    q^(x+1)/(1-q) <= eps_tv, i.e. at the horizon
    x* = _chain_horizon(q, eps_tv), so each window law is within width *
    eps_tv of exact in total variation.  The values are
    sigma(j) = j + r_j - ell_j.

    Draws: every row's right counts, row by row, in one s.geometrics call;
    then rounds of one s.geometrics call with one draw for each row whose
    lowest chain is still below x*: first the rows whose lowest chain took
    no step in the previous round, then the other rows still drawing.  At
    count=1 these are the draws of one chain per position, walked to x*
    over a lazily extended cache, in the same order.  The rounds keep each
    active row's lowest state in an array aligned with the active rows; a
    row leaves when it reaches x*, so its lowest chains' hits are its draws
    less its x* - low steps.  The other live chains are kept flat and
    compressed as they reach x*.

    Whatever eps_tv, a row's values are distinct and in the order of the
    exact ones: a chain's state counts the smaller values at the positions
    it has reached and to the right of j, so a chain stops no further left
    than any chain of a smaller value, and j + r_j - ell_j never rises as a
    chain goes left.  A collision is therefore a defect and raises
    NotInjectiveError.
    """
    _check_window(lo, hi)
    if count < 0:
        raise DomainError("count must be >= 0")
    xstar = _chain_horizon(p.q, eps_tv)
    _check_stream(p, s)
    width = hi - lo + 1
    r = s.geometrics(count * width).reshape(count, width)
    x = _leftward_chains(r)
    ell = np.arange(width) - (x - r)
    # a draw above a row's lowest chain leaves it, any other steps every
    # live chain of the row, so the lowest chains alone set the rounds; the
    # other live chains are kept flat, as chain index into the row-major
    # window, row and state
    low = x.min(axis=1)
    lowest = x == low[:, None]
    chain = np.flatnonzero(~lowest & (x < xstar))
    row, state = chain // width, x.reshape(-1)[chain]
    flat_ell = ell.reshape(-1)  # a view: arithmetic on r gives a C-order ell
    drawn = np.zeros(count, dtype=np.int64)  # a row's draw count, set as it leaves
    row_draw = np.empty(count, dtype=np.int64)
    active = np.flatnonzero(low < xstar)
    cur = low[active]  # the active rows' lowest states, in draw order
    rounds = 0
    while active.size:
        draws = s.geometrics(active.size)
        rounds += 1
        if chain.size:  # a live chain's row is active: low <= its state
            row_draw[active] = draws
            hit = row_draw[row] > state
            flat_ell[chain[hit]] += 1
            state += ~hit
            live = state < xstar
            chain, row, state = chain[live], row[live], state[live]
        step = draws <= cur
        cur += step
        done = cur == xstar
        drawn[active[done]] = rounds
        keep = np.concatenate((np.flatnonzero(~step), np.flatnonzero(step & ~done)))
        active, cur = active[keep], cur[keep]
    ell += lowest * (drawn - np.maximum(xstar - low, 0))[:, None]
    values = np.arange(lo, hi + 1) + r - ell
    if np.any(np.diff(np.sort(values, axis=1), axis=1) == 0):
        raise NotInjectiveError("window rebuild collided")
    return values, ell


def batch_inversion_position0(
    p: QParam, s: GeomStream, count: int, eps_tv: float
) -> tuple[np.ndarray, np.ndarray]:
    """(displacement, left count) at position 0: batch_inversion_windows on
    [0..0], as two arrays of length count.  d0 = r0 - ell0."""
    d0, ell0 = batch_inversion_windows(0, 0, p, s, count, eps_tv)
    return d0[:, 0], ell0[:, 0]
