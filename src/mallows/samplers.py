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
  count by the leftward chain, whose hits left of the window come from a
  part search as deep as eps_tv sets; each window is within eps_tv of exact
  in total variation.  It exists to cross-validate the interlacing
  construction and is checked against it in the verification suites.

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
``perm._leftward_chains``, then each row's tail: a part search for its
lowest chain's hits (``_tail_hits``), and one overshoot per hit for the
other chains.  At width 1 there are no other chains and no in-window
walk, so the tail is the hit count and the overshoots are skipped
(``GeomStream.skip``), not drawn.  ``sample_two_sided_inversion`` is its
count=1 case and ``batch_inversion_position0`` its [0..0] case, so both
return what the kernel returns for the same stream.

``batch_interlacing_windows`` is the scalar interlacing sampler run on a
block of rows at once: the diagrams come from the part-size search of
``sample_young_euler`` applied to every row still drawing
(``_diagram_triples``), then exactly the shuffle skips the rows need are
drawn in one call, and the sign-word slots (``_sign_counts``, the + position
rule of ``_plus_positions``), the letters (``perm._chain_states``, in the
narrowest integer type that holds them) and the window fill, one gather
of the letters signed in place (``_signed_letters``), run on arrays.
At count=1 it draws the same uniforms in the same order as
``sample_two_sided_interlacing`` and returns the same window.

Both kernels' part searches are one round loop, ``_parts_above``, on
``qseries.log_table``: the diagrams from part 0 at q's full depth
(``qseries.euler_table``), the tail hits from each row's lowest chain
state.  A row finds a part exactly when its target lies below the table
end, so a round searches only those rows.  A round draws its
multiplicities and the next round's search uniforms in one s.uniforms
call, since uniforms(a) then uniforms(b) draws what uniforms(a + b) does.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotInjectiveError
from .perm import (
    PermWindow, _chain_states, _leftward_chains, _narrow_skips, _pop_letters, eliminate_right,
)
from .qseries import MAX_TABLE, QParam, _horizon, euler_table, log_table
from .streams import GeomStream, _geometrics_of_logs


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
    truncated-geometric right counts (limit n-i at position i), which
    checks n.
    """
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

def sample_young_euler(p: QParam, s: GeomStream) -> YoungDiagram:
    """Diagram with P(lambda) = <inf>_q * q^|lambda| — Euler's measure.

    The multiplicity of part size k is geometric with ratio q^k,
    independently over k, so given no part in 1..b the next part size J
    has P(J > j) = <j>_q / <b>_q.  One uniform U gives
    J = min{j : -log <j>_q > -log <b>_q - log U}; if there is none (the
    target is not below the table's last entry), the diagram is complete,
    which has probability <inf>_q / <b>_q (up to the relative error
    EPS_SERIES of the table's last entry).  Otherwise J has
    multiplicity 1 + geometric(q^J) and the search goes on from b = J.
    Part sizes increase strictly and stay below the table length, so the
    loop ends.  Draws: one uniform per search (one per distinct part size
    plus one that ends the diagram), and one uniform U per multiplicity,
    which is 1 + floor(log U / log q^J): _parts_above at one row, numpy's
    log included.  Raises DomainError where <inf>_q is not a normal double
    (q >~ 0.9977).
    """
    _check_stream(p, s)
    neg, log_qpow = euler_table(p.q)
    parts: list[int] = []
    b = 0
    while (key := neg[b] - np.log(s.uniform())) < neg[-1]:
        j = int(neg.searchsorted(key, "right"))
        parts.extend([j] * (1 + int(np.log(s.uniform()) / log_qpow[j])))
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
    leftward chains, whose hits left of the window are drawn by a part
    search that skips parts above qseries._horizon(q, eps_tv), so the window
    is within eps_tv of exact in total variation.  The search depth never
    changes the order of the values, so they never collide.
    """
    values, _ = batch_inversion_windows(lo, hi, p, s, 1, eps_tv)
    return PermWindow(lo=lo, hi=hi, values=tuple(values[0].tolist()))


# --------------------------------------------------------------------------
# batch kernels (vectorized Monte Carlo; same laws as the scalar samplers)
# --------------------------------------------------------------------------

def _check_sizes(n: int, count: int) -> None:
    """DomainError naming the argument out of its domain, n first."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if count < 0:
        raise DomainError("count must be >= 0")


def batch_finite_r(n: int, p: QParam, s: GeomStream, count: int) -> np.ndarray:
    """count x n matrix of independent truncated-geometric right counts.

    Column i (0-based) has support {0..n-1-i}; each row encodes one finite
    Mallows word, recoverable through eliminate_right.  All rows are drawn
    row by row in one call (the last column is 0 and draws nothing), so
    row k holds the right counts of the k-th of count successive
    sample_finite_mallows calls.
    """
    _check_sizes(n, count)
    _check_stream(p, s)
    out = np.zeros((count, n), dtype=np.int64)
    limits = np.tile(np.arange(n - 1, 0, -1), count)
    out[:, :-1] = s.truncated_geometrics(limits).reshape(count, n - 1)
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
    _check_sizes(n, count)
    _check_stream(p, s)
    return 1 + _leftward_chains(s.geometrics(count * n).reshape(count, n))


def finite_r_codes(r_matrix: np.ndarray) -> np.ndarray:
    """Mixed-radix code of each row; a bijection onto 0..n!-1, the
    lexicographic rank of the row's word (its Lehmer code)."""
    count, n = r_matrix.shape
    codes = np.zeros(count, dtype=np.int64)
    for i in range(n):
        codes = codes * (n - i) + r_matrix[:, i]
    return codes


#: rows drawn and filled together; bounds the slot and letter arrays to a
#: few MB whatever the count
_BLOCK_ROWS = 2048

#: the largest bound (max(letters, |lo - 1|, |hi - 1|) + 1) * (2 * rows + 1)
#: at which a block's gather indices, built in place, run in int32 (else in
#: int64): it bounds every index into the skips and the letter matrix, and
#: every partial sum on the way
_INDEX32_MAX = 2**31 - 1


def batch_interlacing_windows(
    lo: int, hi: int, p: QParam, s: GeomStream, count: int
) -> np.ndarray:
    """count x width matrix of exact two-sided windows (interlacing law).

    Rows are made _BLOCK_ROWS at a time.  A block draws from s as
    sample_two_sided_interlacing does for each of its rows, in this order:
    the diagrams, by the rounds of the part-size search (_diagram_triples);
    then the shuffle skips, exactly as many as the rows have letters, in
    one s.uniforms call taken as the quotients log U / log q of
    s.geometrics: each row's plus word in row order, then each row's minus
    word.  So at count=1 both samplers draw the same uniforms
    in the same order and return the same window.  Then on
    arrays, entry-major (a column or letter index by rows), so that each
    pass runs along the block's rows and not along a window a few entries
    wide:

    * C(i) = #(+ <= i) - i for i in lo-1..hi counts the + positions
      k - lambda_k of _plus_positions, each row's parts ranked in triple
      order (_sign_counts).  Position i carries + with rank i + C(i) when
      C(i) = C(i-1), else - with rank C(i-1) = C(i) + 1; the row needs
      kmax = hi + C(hi) plus and tmax = C(lo-1) minus letters;
    * the quotients are floored into the narrowest integer type that
      holds the letters (perm._narrow_skips, the cast that floors
      s.geometrics' draws), and a letters x words matrix of skips is
      gathered from them by np.take(mode="clip"): letter k of a word is
      the draw k places after the word's first, at offset cumsum(need) -
      need.  Past its need a word reads the next words' draws, or the last
      draw again where the clip holds an index past the end.  No slot reads
      those letters, and a chain reads only earlier letters of its word,
      so the letters 1 + perm._chain_states of the words, entry-major and
      in that narrow type, are exact up to each need;
    * the chain states are signed in place (_signed_letters): 1 + state,
      the letter, in the plus words, and -state, the 1 - (minus letter) a
      - slot takes, in the minus words; the window is then one gather of
      them at a flat index picked by sign: + slots take plus letters by
      rank, - slots minus ones by rank from the right.
    """
    _check_window(lo, hi)
    if count < 0:
        raise DomainError("count must be >= 0")
    _check_stream(p, s)
    neg, log_qpow = euler_table(p.q)
    prev = np.arange(lo - 1, hi)[:, None]  # i - 1 for each window position i
    out = np.empty((count, hi - lo + 1), dtype=np.int64)
    for b0 in range(0, count, _BLOCK_ROWS):
        nb = min(_BLOCK_ROWS, count - b0)
        row, part, mult = _diagram_triples(s, nb, neg, log_qpow)
        c = _sign_counts(row, part, mult, nb, lo, hi).T  # entry-major: c[i - lo + 1] = C(i)
        need = np.concatenate((hi + c[-1], c[0]))  # plus words, then minus words
        width = max(1, int(need.max()))
        # every index below fits the narrower type (see _INDEX32_MAX)
        bound = (max(width, abs(lo - 1), abs(hi - 1)) + 1) * (2 * nb + 1)
        dtype = np.int32 if bound <= _INDEX32_MAX else np.int64
        # letters x words: word w's skips are the floored quotients
        # log U / log q from its start on, in draw order; past its need a
        # word reads the next words' skips or the last one again, letters
        # no slot reads
        quot = s.uniforms(int(need.sum()))
        np.divide(np.log(quot, out=quot), math.log(s.q), out=quot)
        at = np.arange(width, dtype=dtype)[:, None] + (np.cumsum(need) - need).astype(dtype)
        signed = _signed_letters(
            _chain_states(np.take(_narrow_skips(quot, width), at, mode="clip")), nb
        )
        # each slot reads only the sign it takes, at flat index k * 2nb + w
        # for letter k (0-based) of word w: k = i - 1 + C(i) at a + slot and
        # k = C(i-1) - 1 = C(i) at a - slot
        plus = c[1:] == c[:-1]
        # at = C(i) * 2nb + nb + w, a - slot's index; a + slot's is
        # (i - 1) * 2nb - nb more
        at = c[1:].astype(dtype)
        at *= 2 * nb
        at += np.arange(nb, 2 * nb, dtype=dtype)
        at += (prev * (2 * nb) - nb).astype(dtype) * plus
        out[b0 : b0 + nb] = np.take(signed, at).T
    return out


def _signed_letters(chains: np.ndarray, nb: int) -> np.ndarray:
    """The letters x words chain states of a block of nb rows, signed in
    place as the window takes them: plus letter k of word w < nb is
    1 + chains[k, w], and a - slot takes 1 - (minus letter) = -chains[k, w]
    from word w >= nb.  The states stay in their _narrow_skips dtype, whose
    maximum no state reaches, so the + 1 cannot wrap."""
    chains[:, :nb] += 1
    np.negative(chains[:, nb:], out=chains[:, nb:])
    return chains


def _parts_above(
    s: GeomStream, active: np.ndarray, base, neg: np.ndarray, log_qpow: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts above base (up to the end of the table neg, log_qpow of
    qseries.log_table) of an Euler-measure diagram for each row of active,
    in row order, as int64 (row, part size, multiplicity) triples, the
    later rounds first.

    Each round, every row still drawing takes one uniform U, and its next
    part size j is the first with neg[j] > key = neg[base] - log U.  neg
    is nondecreasing, so there is one exactly when key < neg[-1]: the
    other rows are complete, and only the m rows below the table end are
    searched.  Those draw j's multiplicity, geometric with ratio q^j, from
    one uniform each: one s.uniforms(2m) call under one np.log, the
    multiplicities first, then the next round's search.  A round only
    searches; after the last one, one gather, division and cast make all
    the multiplicities, 1 + floor(log U / log q^j).
    """
    log_u = np.log(s.uniforms(active.size))
    rounds = []
    while True:
        key = neg[base] - log_u
        found = (key < neg[-1]).nonzero()[0]
        active, base = active[found], np.searchsorted(neg, key[found], side="right")
        m = active.size
        log_u = np.log(s.uniforms(2 * m))
        rounds.append((active, base, log_u[:m]))
        if not m:
            break
        log_u = log_u[m:]
    row, part, log_u = (np.concatenate([r[i] for r in reversed(rounds)]) for i in range(3))
    mult = _geometrics_of_logs(log_u, log_qpow[part])
    mult += 1
    return row, part, mult


def _diagram_triples(
    s: GeomStream, rows: int, neg: np.ndarray, log_qpow: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler-measure diagrams of `rows` rows, 1 <= rows <= 2^15, as int32
    (row, part size, multiplicity) triples, sorted by row and then by
    decreasing part size: _parts_above from base 0 on qseries.euler_table."""
    row, part, mult = _parts_above(s, np.arange(rows), 0, neg, log_qpow)
    # later rounds hold larger parts, so with them first a stable sort by
    # row keeps each row's parts decreasing
    row, part, mult = (a.astype(np.int32) for a in (row, part, mult))
    assert rows <= 2**15
    order = np.argsort(row.astype(np.int16), kind="stable")  # a radix sort
    return row[order], part[order], mult[order]


def _sign_counts(
    row: np.ndarray, part: np.ndarray, mult: np.ndarray, nrows: int, lo: int, hi: int
) -> np.ndarray:
    """nrows x (hi-lo+2) matrix with C[r, i-lo+1] = #(+ <= i) - i for
    i = lo-1..hi, the diagrams given as triples sorted by row and then by
    decreasing part size.  It is the transpose of an entry-major array, in
    which the counts and C are made column by column over all rows, and the
    running sums by adding each column's counts to the next in place.

    This is the rule of _plus_positions on arrays: with a row's parts
    lambda_1 >= ... >= lambda_L in triple order, part k sits at + position
    k - lambda_k, and the + positions past the parts are L+1, L+2, ..., so
    #(+ <= i) = #{k <= L : k - lambda_k <= i} + max(0, i - L), and C(i) =
    #{k <= L : k - lambda_k <= i} - min(i, L).  C(i) counts the -
    positions above i.
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
    plus = np.bincount(col * nrows + np.repeat(row, mult), minlength=(ncols + 1) * nrows)
    below = plus.reshape(ncols + 1, nrows)[:ncols]
    for k in range(1, ncols):  # the running sums, row by row in place
        below[k] += below[k - 1]
    below -= np.minimum(np.arange(lo - 1, hi + 1)[:, None], nparts)
    return below.T


def batch_inversion_windows(
    lo: int, hi: int, p: QParam, s: GeomStream, count: int, eps_tv: float
) -> tuple[np.ndarray, np.ndarray]:
    """(values, left counts): two count x width matrices of two-sided
    windows rebuilt from i.i.d. geometric right counts.

    Each position j runs the leftward chain of mallows.perm: state x starts
    at r_j and meets r_{j-1}, r_{j-2}, ...; a right count above x is a left
    inversion of j (ell_j += 1), otherwise x increments.  Inside the window
    the chains are exact: ell_j = (j - lo) - (x_j - r_j), x the states of
    _leftward_chains(r).  Left of it a row's chains meet one sequence of
    right counts.  The lowest chain, at state y, is hit with probability
    q^(y+1), so it has as many hits as an Euler-measure diagram has parts
    above its in-window state low (part J's multiplicity is geometric with
    ratio q^J).  A hit's overshoot, the right count less y+1, is geometric(q),
    and a chain with gap g = x - y is hit where g <= the overshoot, else its
    gap grows by 1 (a right count <= y steps every chain).  So a part search
    from low (_parts_above) on the table of -log <j>_q, j <= x* =
    qseries._horizon(q, eps_tv), gives the hits, and one overshoot per hit
    the rest.  A part above x* has probability at most q^(x*+1)/(1-q) <=
    eps_tv, so each row is within eps_tv of exact in total variation.  The
    values are sigma(j) = j + r_j - ell_j.

    Draws: every row's right counts, row by row, in one s.geometrics call;
    then search rounds (_tail_hits), each one uniform per row still
    searching (at first the rows with low below x*, in row order) and one
    multiplicity per row that found a part, one s.uniforms call a round for
    that round's multiplicities and the next round's search; then every
    overshoot in one s.geometrics call laid out round-major: round t has
    one draw per row with more than t hits, rows by decreasing hits and
    then by row.  At width 1 the row's one chain is its lowest, with x = r
    and no in-window left count, so every overshoot hits it and its tail is
    its hit count: the overshoots are skipped, not drawn (GeomStream.skip
    leaves s where drawing them would), and no chain, minimum or collision
    check runs.  At count=1 these are one chain's search and then its
    overshoots.

    Whatever eps_tv, a row's values are distinct and in the order of the
    exact ones: the cascade walks the row's chains over one sequence of
    right counts, and the right counts inside the window fix the order of
    its values.  A collision is therefore a defect and raises
    NotInjectiveError.
    """
    _check_window(lo, hi)
    if count < 0:
        raise DomainError("count must be >= 0")
    q, xstar = p.q, _horizon(p.q, eps_tv)
    if xstar > MAX_TABLE:
        raise DomainError(f"eps_tv={eps_tv!r} at q={q} needs a tail table of {xstar} "
                          f"parts, past MAX_TABLE={MAX_TABLE}")
    _check_stream(p, s)
    width = hi - lo + 1
    r = s.geometrics(count * width).reshape(count, width)
    if width == 1:
        # x = r and ell = 0: the row's one chain is its lowest, which every
        # overshoot hits, and one value cannot collide
        ell = _tail_hits(r[:, 0], q, xstar, s)[:, None]
        s.skip(int(ell.sum()))
        return lo + r - ell, ell
    x = _leftward_chains(r)
    ell = np.arange(width) - (x - r)
    low = x.min(axis=1)
    hits = _tail_hits(low, q, xstar, s)
    order = np.argsort(-hits, kind="stable")  # by decreasing hits, then by row
    gap = (x - low[:, None])[order]
    tail = np.zeros_like(gap)
    over, done = s.geometrics(int(hits.sum())), 0
    for n in (count - np.cumsum(np.bincount(hits))[:-1]).tolist():  # rows with hits left
        hit = gap[:n] <= over[done : done + n, None]
        tail[:n] += hit
        gap[:n] += ~hit
        done += n
    ell[order] += tail
    values = np.arange(lo, hi + 1) + r - ell
    if np.any(np.diff(np.sort(values, axis=1), axis=1) == 0):
        raise NotInjectiveError("window rebuild collided")
    return values, ell


def _tail_hits(low: np.ndarray, q: float, xstar: int, s: GeomStream) -> np.ndarray:
    """Each row's tail hits, as int64: the parts above its in-window state
    low of an Euler-measure diagram, by _parts_above from base low on the
    table of -log <j>_q, j <= xstar (qseries.log_table), over the rows with
    low below xstar in row order.  np.add.at sums each row's multiplicities
    in int64, so exactly at any size."""
    hits = np.zeros(low.size, dtype=np.int64)
    active = np.flatnonzero(low < xstar)
    row, _, mult = _parts_above(s, active, low[active], *log_table(q, xstar))
    np.add.at(hits, row, mult)
    return hits


def batch_inversion_position0(
    p: QParam, s: GeomStream, count: int, eps_tv: float
) -> tuple[np.ndarray, np.ndarray]:
    """(displacement, left count) at position 0: batch_inversion_windows on
    [0..0], as two arrays of length count.  d0 = r0 - ell0."""
    d0, ell0 = batch_inversion_windows(0, 0, p, s, count, eps_tv)
    return d0[:, 0], ell0[:, 0]
