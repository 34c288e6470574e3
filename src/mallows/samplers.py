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
  {k - lambda_k} (``_plus_positions``, which ``sign_word_from_lambda`` also
  reads): the number C(i) of - positions above i is #(+ <= i) - i.
* ``sample_two_sided_inversion`` draws i.i.d. geometric right counts and
  rebuilds values through sigma(i) = i + r_i - l_i, reconstructing each left
  count by the leftward chain with a total-variation stopping budget; its
  window law is within (window width) * eps_tv of exact.  It exists to
  cross-validate the interlacing construction and is checked against it in
  the verification suites.

``batch_*`` functions are vectorized Monte Carlo kernels producing the same
laws at acceptance-test sample sizes.  They consume their stream in a
different order than the scalar samplers (column-wise rather than per
sample), so for a fixed seed they do not reproduce the scalar outputs
draw-for-draw — only the law is shared, which the test suite verifies.

``batch_interlacing_windows`` draws a chunk's diagrams column by column and
keeps them as sparse (row, part size, multiplicity) triples; the sign-word
slots (``_sign_counts``), the q-shuffle letters (``_shuffle_letters``) and
the window fill then run on arrays, a block of rows at a time.  Only the
rare rows whose diagram is not settled by the exact Bernoulli, or that need
more letters than the pre-drawn skips hold, take scalar draws.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .perm import PermWindow, reconstruct_ell
from .qseries import QParam, pochhammer_table
from .streams import GeomStream


def _check_stream(p: QParam, s: GeomStream) -> None:
    if s.q != p.q:
        raise DomainError(
            f"stream ratio {s.q} does not match parameter q={p.q}"
        )


@dataclass(frozen=True)
class YoungDiagram:
    """Partition as a weakly decreasing tuple of positive part sizes."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(x <= 0 for x in self.parts):
            raise ValueError("parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, k: int) -> int:
        """k-th part (1-indexed), 0 beyond the last."""
        return self.parts[k - 1] if 1 <= k <= len(self.parts) else 0


@dataclass(frozen=True)
class InterlacingTriple:
    """The data (w+ prefix, w- suffix, lambda) behind an interlacing sample.

    w_plus_prefix holds the first letters of the positive one-sided word;
    w_minus_suffix holds the last letters of the non-positive word in
    left-to-right position order.  lam encodes the sign word: +1 positions
    are {k - lambda_k : k >= 1}, the rest carry -1.
    """

    w_plus_prefix: tuple[int, ...]
    w_minus_suffix: tuple[int, ...]
    lam: YoungDiagram

    def __post_init__(self) -> None:
        if any(v <= 0 for v in self.w_plus_prefix):
            raise ValueError("w_plus_prefix entries must be positive")
        if len(set(self.w_plus_prefix)) != len(self.w_plus_prefix):
            raise ValueError("w_plus_prefix entries must be distinct")
        if any(v > 0 for v in self.w_minus_suffix):
            raise ValueError("w_minus_suffix entries must be <= 0")
        if len(set(self.w_minus_suffix)) != len(self.w_minus_suffix):
            raise ValueError("w_minus_suffix entries must be distinct")


# --------------------------------------------------------------------------
# one-sided building blocks
# --------------------------------------------------------------------------

def sample_truncated_geometric(limit: int, p: QParam, s: GeomStream) -> int:
    """One draw with P(k) = q^k / [limit+1]_q on {0..limit}."""
    if limit < 0:
        raise DomainError("limit must be >= 0")
    _check_stream(p, s)
    return s.truncated_geometric(limit)


def sample_finite_mallows(n: int, p: QParam, s: GeomStream) -> PermWindow:
    """Word of {1..n} with P(sigma) = q^inv(sigma) / [n!]_q.

    Draws independent truncated-geometric right counts (limit n-i at
    position i) and applies the elimination algorithm.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    _check_stream(p, s)
    r = [s.truncated_geometric(n - i) for i in range(1, n + 1)]
    from .perm import eliminate_right

    return eliminate_right(r)


class _ShuffleState:
    """Incremental q-shuffle: hand out the (R+1)-th smallest unused value."""

    __slots__ = ("used", "smallest")

    def __init__(self) -> None:
        self.used: set[int] = set()
        self.smallest = 1

    def take(self, skip: int) -> int:
        v = self.smallest
        while True:
            if v not in self.used:
                if skip == 0:
                    break
                skip -= 1
            v += 1
        self.used.add(v)
        while self.smallest in self.used:
            self.smallest += 1
        return v


def q_shuffle_prefix(n_letters: int, p: QParam, s: GeomStream) -> tuple[int, ...]:
    """First n_letters letters of the one-sided word.

    Letter i is the (R_i+1)-th smallest positive integer not used yet, with
    R_i i.i.d. geometric; the prefix is an exact marginal of the one-sided
    law (generation is sequential, no truncation error).
    """
    if n_letters < 1:
        raise DomainError("n_letters must be >= 1")
    _check_stream(p, s)
    st = _ShuffleState()
    return tuple(st.take(s.geometric()) for _ in range(n_letters))


# --------------------------------------------------------------------------
# Young diagrams under the Euler measure
# --------------------------------------------------------------------------

def _young_multiplicities(p: QParam, s: GeomStream, k_base: int = 0) -> dict[int, int]:
    """Multiplicities {part size -> count} of an Euler-measure diagram,
    conditioned on all part sizes <= k_base having multiplicity 0.

    Lazy exact scheme: certify "all remaining multiplicities are zero" by a
    Bernoulli with the exact probability prod_{k>k_base}(1-q^k); on failure
    locate the first nonzero part size J by inverse CDF over
    P(J=j) = prod_{k_base<i<j}(1-q^i) * q^j, draw its multiplicity
    conditioned >= 1, and recurse from J.  No truncation anywhere.
    """
    q = p.q
    mult: dict[int, int] = {}
    while True:
        table = pochhammer_table(p, k_base)
        cert = table.infinite_value / table.value(k_base)
        if s.bernoulli(cert):
            return mult
        v = s.uniform() * (1.0 - cert)
        acc, run, j = 0.0, 1.0, k_base
        while True:
            j += 1
            pj = run * q**j
            # the terms decrease, so once one no longer moves acc none will:
            # stop there rather than walk on until q**j underflows
            if acc + pj == acc:
                break
            acc += pj
            if acc >= v:
                break
            run *= 1.0 - q**j
        mult[j] = 1 + s.geometric(ratio=q**j)
        k_base = j


def sample_young_euler(p: QParam, s: GeomStream) -> YoungDiagram:
    """Diagram with P(lambda) = <inf>_q * q^|lambda| — Euler's measure.

    Part-size multiplicities are independent geometrics with ratio q^k;
    termination is decided by an exact Bernoulli (see _young_multiplicities),
    so the output law carries no truncation error.
    """
    _check_stream(p, s)
    mult = _young_multiplicities(p, s)
    parts: list[int] = []
    for k in sorted(mult, reverse=True):
        parts.extend([k] * mult[k])
    return YoungDiagram(tuple(parts))


def _plus_positions(parts: tuple[int, ...], hi: int) -> list[int]:
    """The + positions k - lambda_k <= hi of the sign word, in rank order.

    k - lambda_k increases strictly with k, so entry k-1 is the position of
    rank k; past the last part lambda_k = 0 and the positions run
    len(parts)+1, len(parts)+2, ...
    """
    plus = [k - x for k, x in enumerate(parts, 1) if k - x <= hi]
    plus.extend(range(len(parts) + 1, hi + 1))
    return plus


def sign_word_from_lambda(lam: YoungDiagram, lo: int, hi: int) -> tuple[int, ...]:
    """The +-1 word on positions lo..hi encoded by lam.

    Position i carries +1 exactly when i = k - lambda_k for some k >= 1;
    with lam empty that means +1 for i >= 1 and -1 for i <= 0, and each box
    of lam swaps one adjacent (+,-) pair across the origin.
    """
    if hi < lo:
        raise ValueError("sign word requires lo <= hi")
    plus = set(_plus_positions(lam.parts, hi))
    return tuple(1 if i in plus else -1 for i in range(lo, hi + 1))


# --------------------------------------------------------------------------
# two-sided samplers
# --------------------------------------------------------------------------

def sample_two_sided_interlacing(
    lo: int, hi: int, p: QParam, s: GeomStream
) -> tuple[PermWindow, InterlacingTriple]:
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
    if hi < lo:
        raise DomainError("window requires lo <= hi")
    _check_stream(p, s)
    lam = sample_young_euler(p, s)
    plus = _plus_positions(lam.parts, hi)
    kmax = len(plus)
    first = bisect_left(plus, lo)  # rank - 1 of the first + slot in the window
    tmax = first - (lo - 1)
    wp = q_shuffle_prefix(kmax, p, s) if kmax else ()
    u = q_shuffle_prefix(tmax, p, s) if tmax else ()
    vals = [0] * (hi - lo + 1)
    k, t = kmax - 1, kmax - hi
    for i in range(hi, lo - 1, -1):
        if k >= first and plus[k] == i:
            vals[i - lo] = wp[k]
            k -= 1
        else:
            vals[i - lo] = 1 - u[t]
            t += 1
    window = PermWindow(lo=lo, hi=hi, values=tuple(vals))
    triple = InterlacingTriple(
        w_plus_prefix=wp,
        w_minus_suffix=tuple(1 - u[t] for t in range(tmax - 1, -1, -1)),
        lam=lam,
    )
    return window, triple


def sample_two_sided_inversion(
    lo: int, hi: int, p: QParam, s: GeomStream, eps_tv: float
) -> PermWindow:
    """Window of the two-sided law via i.i.d. geometric right counts.

    Left counts are reconstructed by the leftward chain, all positions
    sharing one lazily drawn sequence of right counts to the left of the
    window; each chain stops once the probability of any further increment
    is <= eps_tv, so the window law is within (hi-lo+1)*eps_tv of exact in
    total variation (union bound).  Raises NotInjectiveError if the rebuilt
    values collide (astronomically rare; a sign eps_tv is too loose).
    """
    if hi < lo:
        raise DomainError("window requires lo <= hi")
    if eps_tv <= 0.0:
        raise DomainError("eps_tv must be > 0")
    _check_stream(p, s)
    width = hi - lo + 1
    r = [s.geometric() for _ in range(width)]
    left_cache: list[int] = []
    vals = []
    for j in range(lo, hi + 1):
        cursor = 0

        def extend() -> int:
            nonlocal cursor
            if cursor == len(left_cache):
                left_cache.append(s.geometric())
            out = left_cache[cursor]
            cursor += 1
            return out

        ell_j, _, _ = reconstruct_ell(r, lo, j, p, eps_tv, extend)
        vals.append(j + r[j - lo] - ell_j)
    if len(set(vals)) != width:
        from .errors import NotInjectiveError

        raise NotInjectiveError(
            "window rebuild collided; eps_tv is too loose for this window"
        )
    return PermWindow(lo=lo, hi=hi, values=tuple(vals))


# --------------------------------------------------------------------------
# batch kernels (vectorized Monte Carlo; same laws as the scalar samplers)
# --------------------------------------------------------------------------

def batch_finite_r(n: int, p: QParam, s: GeomStream, count: int) -> np.ndarray:
    """count x n matrix of independent truncated-geometric right counts.

    Column i (0-based) has support {0..n-1-i}; each row encodes one finite
    Mallows word, recoverable through eliminate_right.
    """
    if n < 1 or count < 0:
        raise DomainError("need n >= 1 and count >= 0")
    _check_stream(p, s)
    out = np.zeros((count, n), dtype=np.int64)
    for i in range(n - 1):
        out[:, i] = s.truncated_geometrics(count, n - 1 - i)
    return out


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


#: rows handled together once a chunk's draws are in; bounds the slot and
#: letter arrays to a few MB whatever the chunk size
_BLOCK_ROWS = 2048


def batch_interlacing_windows(
    lo: int, hi: int, p: QParam, s: GeomStream, count: int, chunk: int = 1 << 16
) -> np.ndarray:
    """count x width matrix of exact two-sided windows (interlacing law).

    Rows are made in chunks of at most `chunk`.  A chunk draws from s, in
    this order: the multiplicity columns s.geometrics(rows, ratio=q^k) for
    k = k0..1; one settle uniform per row, which certifies with the exact
    probability prod_{k>k0}(1-q^k) that the row has no part above k0; the
    parts above k0 of each unsettled row, in row order, by the scalar
    _young_multiplicities; and pre-drawn blocks of shuffle skips for the
    plus and minus words.  A row needing more letters than a block holds
    tops it up with scalar s.geometric() draws, in row order, its plus
    letters before its minus letters.  Nothing is truncated, so the law is
    exact.

    After the draws everything runs on arrays, _BLOCK_ROWS rows at a time:

    * the diagram is a list of (row, part size, multiplicity) triples: the
      nonzero entries of the multiplicity columns and the deep parts;
    * C(i) = #{t >= 1 : lambda'_t - t >= i} for i in lo-1..hi comes from
      the runs of constant column height lambda'_t, plus max(0, -i -
      lambda_1) for the t > lambda_1 (_sign_counts).  Position i carries +
      with rank i + C(i) when C(i) = C(i-1), else - with rank C(i-1); the
      row needs kmax = hi + C(hi) plus and tmax = C(lo-1) minus letters;
    * the letters follow the sorted-rank rule of _shuffle_letters;
    * the window is filled by take_along_axis: + slots take plus letters
      by rank, - slots take 1 - (minus letter) by rank from the right.
    """
    if hi < lo:
        raise DomainError("window requires lo <= hi")
    if count < 0 or chunk < 1:
        raise DomainError("need count >= 0 and chunk >= 1")
    _check_stream(p, s)
    q = p.q
    # deepest part size sampled column-wise; beyond it one Bernoulli per row
    k0 = max(8, math.ceil(math.log(1e-6 * (1.0 - q)) / math.log(q)))
    table = pochhammer_table(p, k0)
    cert = table.infinite_value / table.value(k0)
    wp_cols = max(hi, 0) + 16
    wm_cols = max(-lo, 0) + 16
    positions = np.arange(lo, hi + 1)
    out = np.empty((count, hi - lo + 1), dtype=np.int64)
    for done in range(0, count, chunk):
        rows = min(chunk, count - done)
        row, part, mult = _diagram_triples(p, s, rows, k0, cert)
        rp = s.geometrics(rows * wp_cols).reshape(rows, wp_cols)
        rm = s.geometrics(rows * wm_cols).reshape(rows, wm_cols)
        for b0 in range(0, rows, _BLOCK_ROWS):
            b1 = min(b0 + _BLOCK_ROWS, rows)
            nb = b1 - b0
            t0, t1 = np.searchsorted(row, (b0, b1))
            c = _sign_counts(row[t0:t1] - b0, part[t0:t1], mult[t0:t1], nb, lo, hi)
            # plus words in the top rows of one letter matrix, minus below
            need = np.concatenate((hi + c[:, -1], c[:, 0]))
            # one column per letter any row needs; beyond the pre-drawn skips
            # rows top up in row order, plus letters before minus letters
            width = max(1, int(need.max()))
            skips = np.zeros((2 * nb, width), dtype=np.int64)
            skips[:nb, :wp_cols] = rp[b0:b1, :width]
            skips[nb:, :wm_cols] = rm[b0:b1, :width]
            kmax, tmax = need[:nb], need[nb:]
            for r in np.flatnonzero((kmax > wp_cols) | (tmax > wm_cols)):
                skips[r, wp_cols : kmax[r]] = [s.geometric() for _ in range(wp_cols, kmax[r])]
                skips[nb + r, wm_cols : tmax[r]] = [s.geometric() for _ in range(wm_cols, tmax[r])]
            letters = _shuffle_letters(skips, need)
            # a rank is out of range only where the other sign is taken
            before, at = c[:, :-1], c[:, 1:]
            plus_rank = np.clip(positions + at - 1, 0, width - 1)
            minus_rank = np.clip(before - 1, 0, width - 1)
            out[done + b0 : done + b1] = np.where(
                at == before,
                np.take_along_axis(letters[:nb], plus_rank, axis=1),
                1 - np.take_along_axis(letters[nb:], minus_rank, axis=1),
            )
    return out


def _diagram_triples(
    p: QParam, s: GeomStream, rows: int, k0: int, cert: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Euler-measure diagrams of `rows` rows as int32 (row, part size,
    multiplicity) triples, sorted by row and then by decreasing part size.

    Multiplicities of k = k0..1 are drawn column-wise; a row whose settle
    uniform exceeds cert draws its parts above k0 from
    _young_multiplicities, rows in order.  (A geometric draw is at most
    log(2^-53)/log(q), so int32 multiplicities hold for every q at which a
    k0-column draw is feasible.)
    """
    q = p.q
    rows_at, mults = [], []
    for k in range(k0, 0, -1):
        mk = s.geometrics(rows, ratio=q**k)
        nz = mk.nonzero()[0]
        rows_at.append(nz.astype(np.int32))
        mults.append(mk[nz].astype(np.int32))
    deep = []
    for r in np.flatnonzero(s.uniforms(rows) > cert):
        extra = _young_multiplicities(p, s, k_base=k0)
        deep += [(r, k, extra[k]) for k in sorted(extra, reverse=True)]
    # deep parts first, then the columns in decreasing part size, so a
    # stable sort by row keeps each row's parts decreasing
    deep = np.array(deep, dtype=np.int32).reshape(-1, 3)
    row = np.concatenate([deep[:, 0], *rows_at])
    sizes = np.repeat(np.arange(k0, 0, -1, dtype=np.int32), [nz.size for nz in rows_at])
    part = np.concatenate([deep[:, 1], sizes])
    mult = np.concatenate([deep[:, 2], *mults])
    order = np.argsort(row, kind="stable")
    return row[order], part[order], mult[order]


def _sign_counts(
    row: np.ndarray, part: np.ndarray, mult: np.ndarray, nrows: int, lo: int, hi: int
) -> np.ndarray:
    """nrows x (hi-lo+2) matrix with C[r, i-lo+1] = #{t >= 1 : lambda'_t - t >= i}
    for i = lo-1..hi, the diagrams given as triples sorted by row and then
    by decreasing part size.

    C(i) counts the - positions of the sign word above i: they are the
    lambda'_t - t + 1.  On a run t in (b, a] of constant column height
    lambda'_t = h (a a part size, b the next smaller one or 0, h the number
    of parts >= a) the values lambda'_t - t fill [h-a, h-b-1]; the
    t > lambda_1 fill (-inf, -lambda_1-1].  The values are distinct, so
    C(i) is the number above hi plus a suffix sum of their indicator on
    lo-1..hi, which is built from interval end points.
    """
    ncols = hi - lo + 2
    start = np.searchsorted(row, np.arange(nrows + 1))
    cm = np.cumsum(mult, dtype=np.int64)
    height = cm - np.concatenate(([0], cm))[start[row]]
    nxt = np.zeros(row.size, dtype=np.int64)
    same = np.flatnonzero(row[1:] == row[:-1])
    nxt[same] = part[same + 1]
    lam1 = np.zeros(nrows, dtype=np.int64)
    nonempty = start[:-1] < start[1:]
    lam1[nonempty] = part[start[:-1][nonempty]]
    # intervals [first, last] of values; the tail's start below lo-1 is
    # clipped to lo-1, which changes no count taken here
    rid = np.concatenate((row, np.arange(nrows)))
    first = np.concatenate((height - part, np.full(nrows, lo - 1)))
    last = np.concatenate((height - nxt - 1, -lam1 - 1))
    above = np.bincount(
        rid, weights=np.maximum(0, last - np.maximum(first, hi + 1) + 1), minlength=nrows
    ).astype(np.int64)
    first = np.maximum(first, lo - 1) - (lo - 1)
    last = np.minimum(last, hi) - (lo - 1)
    keep = first <= last
    rid, first, last = rid[keep] * (ncols + 1), first[keep], last[keep]
    size = nrows * (ncols + 1)
    edges = np.bincount(rid + first, minlength=size) - np.bincount(rid + last + 1, minlength=size)
    indicator = np.cumsum(edges.reshape(nrows, ncols + 1)[:, :ncols], axis=1)
    return above[:, None] + np.cumsum(indicator[:, ::-1], axis=1)[:, ::-1]


def _shuffle_letters(skips: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Row r's first n[r] q-shuffle letters, letter i skipping skips[r, i]
    unused values; rows x skips.shape[1], zero past n[r].

    Letter i is the (R+1)-th smallest positive integer not used yet, R its
    skip.  With s the earlier letters sorted (0-indexed), that is
    w = R + 1 + #{k : s_k - k <= R + 1}.  d_k = s_k - k is nondecreasing;
    w enters d at rank m = #{k : d_k <= R + 1} as d_m = R + 1, and the d_k
    after it drop by one.  Each letter column is a fixed number of array
    operations over the rows still drawing, which are a prefix once rows
    are sorted by decreasing n.
    """
    rows, width = skips.shape
    order = np.argsort(-n, kind="stable")
    need = n[order]
    # letter-major layout: the rows still drawing are a contiguous prefix
    r1 = np.ascontiguousarray((skips[order] + 1).T)
    letters = np.zeros_like(r1)
    # d[1:] holds d_0, d_1, ...; row 0 lets d[:i+1] read d_{j-1}
    d = np.zeros((width + 1, rows), dtype=r1.dtype)
    span, index = np.arange(width + 1)[:, None], np.arange(rows)
    active = np.searchsorted(-need, -np.arange(int(need[0]) if rows else 0)).tolist()
    for i, a in enumerate(active):
        ri = r1[i, :a]
        m = (d[1 : i + 1, :a] <= ri).sum(axis=0)
        letters[i, :a] = ri + m
        np.copyto(d[1 : i + 2, :a], d[: i + 1, :a] - 1, where=span[: i + 1] >= m)
        d[m + 1, index[:a]] = ri
    out = np.empty_like(letters)
    out[:, order] = letters
    return out.T


def batch_inversion_position0(
    p: QParam, s: GeomStream, count: int, eps_tv: float
) -> tuple[np.ndarray, np.ndarray]:
    """(displacement, left count) at position 0 from the inversion sampler.

    Vectorized leftward chains: every row keeps state x (initially r_0) and
    processes shared-law i.i.d. geometric draws moving left; a draw above x
    adds a left inversion, otherwise x increments; a row retires once
    q^(x+1)/(1-q) <= eps_tv.  Returns (d0, ell0) with d0 = r0 - ell0.
    """
    if count < 0:
        raise DomainError("count must be >= 0")
    if eps_tv <= 0.0:
        raise DomainError("eps_tv must be > 0")
    _check_stream(p, s)
    q = p.q
    xstar = math.ceil(math.log(eps_tv * (1.0 - q)) / math.log(q) - 1.0)
    r0 = s.geometrics(count)
    x = r0.copy()
    ell = np.zeros(count, dtype=np.int64)
    active = np.nonzero(x < xstar)[0]
    while active.size:
        draws = s.geometrics(active.size)
        xa = x[active]
        trivial = draws > xa
        ell[active[trivial]] += 1
        bumped = active[~trivial]
        x[bumped] += 1
        active = np.concatenate(
            [active[trivial], bumped[x[bumped] < xstar]]
        )
    return r0 - ell, ell
