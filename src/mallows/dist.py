"""Closed-form laws of the two-sided model, with certified truncation.

Four families of quantities:

* ``displacement_pmf`` — the law of the displacement D = sigma(j) - j at any
  fixed position (the law does not depend on j), tabulated on [-M..M] with a
  certified bound on the a-priori tail mass outside the table.  It is the
  k=1 case of the finite-dimensional series below, not a series of its own.
* ``joint_rl_pmf`` / ``conditional_l_given_r`` — the joint law of the
  right/left inversion counts (R, L) at a position and the conditional law
  of L given R.  Both marginals are geometric with ratio q; R and L are
  *not* independent.
* ``fdd_probability`` — P(sigma(1) = 1+d_1, ..., sigma(k) = k+d_k), the
  k-dimensional displacement probability, for arbitrary integer vectors d.
* ``block_p2`` — the probability that k pinned rows of the q-weighted random
  Young diagram have prescribed lengths, in gap coordinates.

Every infinite series here has positive terms whose ratio eventually drops
below q^2, so adaptive truncation carries a geometric-domination remainder
certificate; functions that can accumulate meaningful truncation error
return an explicit error bound alongside the value.

Each evaluation reads <n>_q off one table, a tuple whose last entry
stands for <inf>_q (qseries.pochhammer_table), and fetches a longer table
only when an index runs past its end (tables share entries).  That table
refuses with DomainError where <inf>_q is not a normal double, so every
law does.

One routine, _series, evaluates the sorted fdd series for every k, and
displacement_pmf's k=1 series for d = 0..radius in one call.  A sorted
query whose composition weights would take more than MAX_STEPS steps of
_gap_weights' DP is refused with TooLargeError before any table is read.

This module alone fills a QParam's memo, for as long as the caller holds
the parameter, and each kind of entry is read and written by one
function.  fdd_probability keeps each sorted series, k=1 included, as
(value, bound) under (d, tol), so a repeated or permuted query runs no
series.  _series keeps each inner tail sum as (sum, bound, <b1>, <a_k>)
under (e, A, R, tol) and each gap tuple's composition weights under
("weights", gaps), with gaps = () at k=1; _tail_series and _gap_weights
only compute them.  A hit is exactly what a fresh evaluation returns,
and refusals are never stored.
Equal parameters share no entries, so a defect planted with monkeypatch
must be checked through a fresh QParam.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import accumulate
from operator import add, index, sub

from .errors import DomainError, TooLargeError
from .perm import inversions
from .qseries import (
    EPS_SERIES, UNDERFLOW, QParam, _integers, pochhammer_table, quotient, truncation_error,
)

#: the ranks m = 1, 2, 3, ... of an fdd query's entries: v_m = d_m + m
_RANKS = range(1, sys.maxsize)

#: the most steps sum_j (1 + g_1+...+g_(j-1)) (g_j+1) of _gap_weights' DP a series may take
MAX_STEPS = 2**24


def _normal(value: float, q: float) -> float:
    """value, or DomainError where a possible event's probability underflowed
    to 0 or to a subnormal double."""
    if value < sys.float_info.min:
        raise DomainError(f"q={q}: the probability underflows to {value!r}, "
                          "below the normal doubles; the value cannot be returned")
    return value


@dataclass(frozen=True)
class DisplacementPmf:
    """Tabulated displacement law on [-radius..radius] plus a tail bound.

    probs maps each d in [-radius..radius] to P(D = d); tail_bound is an
    a-priori upper bound on the mass outside the table, so the table sums
    to at least 1 - tail_bound.
    """

    radius: int
    probs: dict[int, float]
    tail_bound: float = 0.0

    def prob(self, d: int) -> float:
        return self.probs.get(d, 0.0)


@dataclass(frozen=True, init=False)
class FddQuery:
    """A finite-dimensional displacement event: sigma(m) = m + d[m-1] for
    m = 1..k.  The d need not be sorted; colliding implied values make the
    event impossible.  k and each d_m must be integers (int or numpy integer,
    kept as int): a float, even 1.0, is refused, not rounded to another event."""

    k: int
    d: tuple[int, ...]

    def __init__(self, k: int, d) -> None:
        try:
            k = index(k)
        except TypeError:
            raise DomainError(f"k must be an integer, got {k!r}") from None
        if k < 1:
            raise DomainError("k must be >= 1")
        try:
            ints = tuple(map(index, d))
        except TypeError:
            raise DomainError(f"displacements must be integers, got {d!r}") from None
        if len(ints) != k:
            raise DomainError(f"expected {k} displacements, got {len(ints)}")
        self.__dict__.update(k=k, d=ints)  # both fields at once; __setattr__ is frozen


def displacement_pmf(p: QParam, radius: int) -> DisplacementPmf:
    """Tabulate the displacement law on [-radius..radius].

    P(D=d) for d >= 0 is the k=1 fdd series
    (1-q)<inf> sum_l q^(l^2+l*d+2l+d)/(<l+d><l>), evaluated for d = 0..radius
    in one call of _series, the routine fdd_probability runs; so each entry
    is the value fdd_probability(p, FddQuery(1, (d,)), EPS_SERIES) returns,
    and a refusal is the one the first refused d would raise.  The
    law is symmetric about 0, so only d >= 0 is evaluated and the negative
    half reuses the same floats (symmetry is bit-exact).  The tail bound
    2 q^radius dominates P(|D| > radius) because |D| > m forces more than m
    right (or left) inversions at the position.
    """
    (radius,) = _integers((radius,), "radius")
    if radius < 0:
        raise DomainError("radius must be >= 0")
    probs: dict[int, float] = {}
    for d, (value, _) in enumerate(_series(p, range(radius + 1), (), EPS_SERIES)):
        probs[d] = probs[-d] = value
    return DisplacementPmf(radius=radius, probs=probs, tail_bound=2.0 * p.q**radius)


def joint_rl_pmf(p: QParam, r: int, ell: int) -> float:
    """P(R=r, L=ell) = (1-q) q^(r*ell+r+ell) <inf> / (<r><ell>).

    Both marginals are geometric with ratio q; the coupling factor q^(r*ell)
    makes large R and large L repel each other.
    """
    r, ell = _integers((r, ell), "r and ell")
    if r < 0 or ell < 0:
        raise DomainError("r and ell must be >= 0")
    q = p.q
    vals = pochhammer_table(p, max(r, ell))
    num = (1.0 - q) * q ** (r * ell + r + ell) * vals[-1]
    return quotient(num, vals[r] * vals[ell], p)


def conditional_l_given_r(p: QParam, r: int, ell: int) -> float:
    """P(L=ell | R=r) = q^(ell*(r+1)) <inf> / (<r><ell>).

    Given R=r, L is the length of row r+1 of the q^|lambda| diagram, so this
    is block_p2 at k=1.  At ell=0 it is <inf>/<r>, the probability that the
    leftward reconstruction chain started from state r never sees a trivial
    transition.  block_p2 checks r and ell.
    """
    return block_p2(p, (r,), (ell,))


def _tail_series(p: QParam, vals: tuple[float, ...],
                 key: tuple[int, int, int, float]) -> tuple[float, float, float, float]:
    """The inner sum over the free gap a_k of q^(A(b1+1) + (a_k+1)(b1+1+R))
    / (<b1><a_k>), with b1 = e + a_k and a_k from max(0, -e), as
    (sum, error bound, <b1>, <a_k>) at the term where it stopped.

    Terms are summed with Kahan compensation until a term is at most tol
    times the sum and the ratio of the next term to it is at most q^2; the
    geometric tail from there bounds the truncation.  vals is a table of p
    to start from; key = (e, A, R, tol) is _series' memo key for the sum.
    """
    e, big_a, big_r, tol = key
    q = p.q
    q2 = q * q
    a_k = max(0, -e)
    b1 = e + a_k
    lead = max(e, 0)  # max(b1, a_k) - a_k; b1 and a_k step together
    stop = len(vals) - lead  # the a_k at which vals runs out
    expo = big_a * (b1 + 1) + (a_k + 1) * (b1 + 1 + big_r)
    step = big_a + b1 + big_r + a_k + 3  # expo's next increment; grows by 2
    inner = comp = 0.0  # compensated (Kahan) sum
    while True:
        if a_k >= stop:
            vals = pochhammer_table(p, a_k + lead)
            stop = len(vals) - lead
        try:
            term = q**expo / (vals[b1] * vals[a_k])
        except ZeroDivisionError:  # <b1><a_k> underflowed to 0
            raise DomainError(UNDERFLOW.format(q=q)) from None
        y = term - comp
        t = inner + y
        comp = (t - inner) - y
        inner = t
        if term <= tol * inner:
            # ratio of the next term to this one (b1 bumps along with a_k)
            ratio = q**step / ((1.0 - q ** (b1 + 1)) * (1.0 - q ** (a_k + 1)))
            if ratio <= q2:
                break
        a_k += 1
        b1 += 1
        expo += step
        step += 2
    return inner, term * ratio / (1.0 - ratio), vals[b1], vals[a_k]


def _gap_weights(p: QParam, gaps: tuple[int, ...],
                 vals: tuple[float, ...]) -> tuple[tuple[int, float, float], ...]:
    """(head, weight, den_min) for head = 0..sum(gaps), over _series'
    compositions 0 <= a_j <= g_j of the fixed gaps with a_1+...+a_{k-1} =
    head: the sum of q^C / den_rest and the smallest den_rest.  With the
    running head H_j = a_1+...+a_{j-1} and G_j = sum_{i<j} (g_i+1), C =
    sum_j (a_j+1)(G_j - H_j) and den_rest = prod_j <g_j - a_j><a_j>, so a
    weight is a product of steps q^((a_j+1)(G_j - H_j)) / (<g_j - a_j><a_j>)
    that depend on (H_j, a_j) alone.  A forward DP takes them gap by gap:
    for each H_j in increasing order and then each a_j, head H_j + a_j adds
    H_j's weight times the step and keeps the smaller of its den_min and
    H_j's den_min times <g_j - a_j><a_j> (every factor is positive, so the
    least den_rest multiplied in step order).  () has the one head (0, 1.0,
    1.0); both depend on q and the gaps alone, and _series keeps them per
    gap tuple.  A step's <g_j - a_j><a_j> of 0 or a weight that overflows is
    refused.  vals is a table of p covering every gap.
    """
    q = p.q
    sums, mins = [1.0], [1.0]
    big_g = 0
    for g in gaps:
        dens = [vals[g - a] * vals[a] for a in range(g + 1)]
        if 0.0 in dens:
            raise DomainError(UNDERFLOW.format(q=q))
        if not big_g:  # the one head 0: its weight 1.0 times q^0 / den, exactly
            sums, mins = [1.0 / den for den in dens], dens
        else:
            new_sums, new_mins = [0.0] * (len(sums) + g), [math.inf] * (len(sums) + g)
            for head, (weight, den_min) in enumerate(zip(sums, mins)):
                big_r = big_g - head
                expo = 0
                for at, den in enumerate(dens, head):
                    expo += big_r
                    new_sums[at] += weight * (q**expo / den)
                    rest = den_min * den
                    if rest < new_mins[at]:
                        new_mins[at] = rest
            sums, mins = new_sums, new_mins
        big_g += g + 1
    if not all(map(math.isfinite, sums)):
        raise DomainError(UNDERFLOW.format(q=q))
    return tuple(zip(range(len(sums)), sums, mins))


def _series(p: QParam, firsts: Iterable[int], gaps: tuple[int, ...],
            tol: float) -> list[tuple[float, float]]:
    """(value, error bound) of the sorted fdd series d = (d_1, d_1+g_1, ...)
    with gap tuple gaps, k = len(gaps)+1, at each d_1 of firsts, in order.

    Sums over the gap variables a_1..a_{k-1} in their finite ranges
    0 <= a_m <= g_m; the free tail variable a_k (bounded below so every row
    gap b_m stays nonnegative) is summed by _tail_series.  A term's exponent
    sum_j (a_j+1)(b_1+1 + ... + b_j+1) is, by integer prefix sums of the
    fixed gaps, A (b1+1) + C + (a_k+1)(b1+1+R), and its denominator is
    den_rest <b1><a_k> with den_rest the <n>_q of the fixed gaps.  With
    head = a_1+...+a_{k-1}, b1 = d_1 + head + a_k, A = head+k-1 and
    R = d_k-d_1-head+k-1 depend on the composition only through head, while
    C and den_rest factor out of the sum over a_k and depend on the gaps
    alone.  So each head's total weight q^C / den_rest comes from
    _gap_weights, kept in p.memo under ("weights", gaps) (one head of weight
    1.0 at gaps = ()), and each head's tail sum is kept under (d_1+head, A,
    R, tol), shared by every series with the same (d_1, d_k, head).  With
    pref = (1-q)^k q^-(k(k+1)/2) <inf>_q prod_m <g_m>_q, the value is pref *
    sum_h weight_h tail_h and the bound |pref| sum_h weight_h err_h + |value|
    rel_inf.  The table, pref, weights and rel_inf are taken once per call.

    Refused, in the order one call per d_1 raises them: unkept weights past
    MAX_STEPS steps of _gap_weights' DP (TooLargeError), before any table
    is read; q^-(k(k+1)/2) overflowing, before any term; a head whose
    smallest den_rest times <b1><a_k> at the tail's last term underflows
    to 0 (rounding is monotone, so that is where some composition's full
    denominator does); a value below the normal doubles.
    """
    memo = p.memo
    q = p.q
    k = len(gaps) + 1
    width = sum(gaps)  # d_k - d_1
    weights = memo.get(("weights", gaps))
    if weights is None and (1 + width) * (width + k - 1) > MAX_STEPS:  # bounds the steps
        steps = sum((1 + h) * (g + 1) for h, g in zip(accumulate(gaps, initial=0), gaps))
        if steps > MAX_STEPS:
            raise TooLargeError(f"the gaps {gaps} of a sorted fdd query take {steps} steps to "
                                f"weigh, past MAX_STEPS={MAX_STEPS}; no value can be returned")
    # refused before any term: where <inf>_q is not a normal double, the
    # series would run until a denominator underflows
    vals = pochhammer_table(p, width + 8)
    try:
        shift = q ** -(k * (k + 1) // 2)
    except OverflowError:
        raise DomainError(
            f"q={q}: q^-{k * (k + 1) // 2} overflows; the value cannot be returned"
        ) from None
    pref = (1.0 - q) ** k * shift * vals[-1]
    for g in gaps:
        pref *= vals[g]
    rel_inf = truncation_error(q, vals) / vals[-1]
    if weights is None:
        weights = memo["weights", gaps] = _gap_weights(p, gaps, vals)
    span = width + k - 1
    out = []
    for d_1 in firsts:
        parts = []
        err = 0.0
        for head, weight, den_min in weights:
            key = (d_1 + head, head + k - 1, span - head, tol)
            tail = memo.get(key)
            if tail is None:
                tail = memo[key] = _tail_series(p, vals, key)
            if den_min * tail[2] * tail[3] == 0.0:
                raise DomainError(UNDERFLOW.format(q=q))
            parts.append(weight * tail[0])
            err += weight * tail[1]
        value = _normal(pref * math.fsum(parts), q)
        out.append((value, abs(pref) * err + abs(value) * rel_inf))
    return out


def fdd_probability(p: QParam, query: FddQuery, tol: float) -> tuple[float, float]:
    """P(sigma(m) = m + d_m for m = 1..k) as (value, error bound).

    The implied values v_m = d_m + m are sorted, the sorted query's series
    is read from p.memo under (d, tol) or, on a miss, evaluated by _series
    and kept there, and for unsorted d it is multiplied by q^inv(v): each
    inversion of the value word costs one factor q.  So a permuted or
    repeated query costs its ranking and one dict lookup.  Colliding implied
    values make the event impossible: the exact (0, 0) is returned before
    any table is read, not an error.  A sorted query whose weights would
    take more than MAX_STEPS steps of _gap_weights' DP is refused with
    TooLargeError, also before any table is read.  A possible event whose
    value underflows to 0 or to a subnormal double raises DomainError.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    d = query.d
    vals = [*map(add, d, _RANKS)]
    if len(set(vals)) != query.k:
        return 0.0, 0.0
    ranked = sorted(vals)
    unsorted = ranked != vals
    if unsorted:
        d = tuple(map(sub, ranked, _RANKS))
    out = p.memo.get((d, tol))
    if out is None:
        out = p.memo[d, tol] = _series(p, d[:1], tuple(map(sub, d[1:], d)), tol)[0]
    if unsorted:
        factor = p.q ** inversions(vals)
        out = _normal(factor * out[0], p.q), factor * out[1]
    return out


def block_p2(p: QParam, b: tuple[int, ...], a: tuple[int, ...]) -> float:
    """Probability that k pinned rows of the random diagram have prescribed
    lengths, in gap coordinates.

    With x_m = b_1+...+b_m + m (pinned row indices) and y_m = a_m+...+a_k
    (their lengths), returns P(lambda_{x_1} = y_1, ..., lambda_{x_k} = y_k)
    under P(lambda) = <inf>_q q^|lambda|:

        <inf>_q * prod_{m=2..k} <b_m+a_{m-1}>_q / (prod <b_m>_q prod <a_m>_q)
               * q^(sum_{i<=j} b_i a_j + sum_j j a_j).

    At k=1 the exponent is (b+1)a and summing over a >= 0 gives total mass 1
    (Euler's identity), which pins down the index offsets; the k=2 case is
    checked against direct diagram enumeration in the test suite.
    """
    b = _integers(b, "gap coordinates")
    a = _integers(a, "gap coordinates")
    k = len(b)
    if k < 1 or len(a) != k:
        raise DomainError("b and a must be equal-length, nonempty")
    if any(x < 0 for x in b) or any(x < 0 for x in a):
        raise DomainError("gap coordinates must be >= 0")
    vals = pochhammer_table(p, max(b) + max(a))
    num = vals[-1]
    for m in range(1, k):
        num *= vals[b[m] + a[m - 1]]
    den = 1.0
    for x in b:
        den *= vals[x]
    for x in a:
        den *= vals[x]
    expo = 0
    b_prefix = 0
    for j in range(k):
        b_prefix += b[j]
        expo += a[j] * (b_prefix + j + 1)
    return quotient(num, den, p) * p.q**expo
