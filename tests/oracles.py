"""Independent oracles used by the test suite.

Everything here is deliberately implemented from scratch — plain loops, no
imports from the package under test — so agreement between package output
and oracle output is evidence, not tautology.
"""
from __future__ import annotations

from functools import cache
from itertools import permutations

import mpmath


@cache
def poch(q: float, n: int) -> float:
    out = 1.0
    for k in range(1, n + 1):
        out *= 1.0 - q**k
    return out


def poch_inf_log(q: float, prec: int = 200) -> mpmath.mpf:
    """<inf>_q at prec bits for the double q, as exp of sum_k log(1-q^k).

    The terms k <= K, with K the first index where q^(K+1) <= 2^-20, are
    summed one by one.  The rest, sum_{k>K} log(1-q^k), is the series
    -sum_m r^m / (m (1-q^m)) in r = q^(K+1) (expand each log and sum the
    geometric series in k).  Term m is at most r^m/(1-q), so the terms from
    m on sum to at most 2 r^m/(1-q); the series is cut where that falls
    below 2^-prec.
    """
    with mpmath.workprec(prec + 20):
        x = mpmath.mpf(q)
        qk, terms = x, []
        while qk > mpmath.mpf(2) ** -20:
            terms.append(mpmath.log1p(-qk))
            qk *= x
        r, rm, m = qk, qk, 1
        while rm * 2 / (1 - x) >= mpmath.mpf(2) ** -prec:
            terms.append(-rm / (m * (1 - x**m)))
            rm *= r
            m += 1
        return mpmath.exp(mpmath.fsum(terms))


@cache
def poch_inf(q: float) -> float:
    """<inf>_q rounded to the nearest double, from poch_inf_log."""
    return float(poch_inf_log(q))


def brute_pmf(n: int, q: float) -> dict[tuple[int, ...], float]:
    """Exact law on S_n by enumeration: weight q^inv, normalized directly."""
    weights = {}
    for sigma in permutations(range(1, n + 1)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
        )
        weights[sigma] = q**inv
    z = sum(weights.values())
    return {s: w / z for s, w in weights.items()}


def finite_pinned_prob(n: int, q: float, pins: dict[int, int]) -> float:
    """Exact P(sigma(pos) = val for all pins) in the size-n model.

    Dynamic program over the elimination algorithm: the state tracks how
    many not-yet-used non-pinned values sit in each open interval between
    consecutive pinned values.  A pinned position consumes its value at a
    known rank; a free position consumes one value from some interval, with
    the bucket probability summing q^rank over the interval's rank block.
    """
    pins = dict(pins)
    vals = sorted(pins.values())
    t_count = len(vals)
    pos_of_val = {v: pos for pos, v in pins.items()}
    assert len(pos_of_val) == t_count, "pinned values must be distinct"

    bounds = [0] + vals + [n + 1]
    gaps0 = tuple(bounds[g + 1] - bounds[g] - 1 for g in range(t_count + 1))
    states = {gaps0: 1.0}

    for pos in range(1, n + 1):
        m = n - pos
        z = (1.0 - q ** (m + 1)) / (1.0 - q)
        avail = [pos_of_val[vals[t]] >= pos for t in range(t_count)]
        pinned_here = pins.get(pos)
        new: dict[tuple[int, ...], float] = {}
        for gaps, pr in states.items():
            if pinned_here is not None:
                t = vals.index(pinned_here)
                rank = sum(gaps[: t + 1]) + sum(avail[:t])
                new[gaps] = new.get(gaps, 0.0) + pr * q**rank / z
            else:
                start = 0
                for g in range(t_count + 1):
                    width = gaps[g]
                    if width > 0:
                        pbucket = (q**start) * (1 - q**width) / ((1 - q) * z)
                        ng = list(gaps)
                        ng[g] -= 1
                        key = tuple(ng)
                        new[key] = new.get(key, 0.0) + pr * pbucket
                    start += width
                    if g < t_count and avail[g]:
                        start += 1
        states = new
    return sum(states.values())


def displacement_diag_sum(q: float, d: int, terms: int = 200) -> float:
    """Displacement probability by the raw double-indexed sum."""
    d = abs(d)
    s = 0.0
    for ell in range(terms):
        r = ell + d
        s += q ** (r * ell + r + ell) / (poch(q, r) * poch(q, ell))
    return (1 - q) * poch_inf(q) * s


def fdd_sorted_oracle(q: float, dvec: list[int], tail_terms: int = 240) -> float:
    """k-dimensional displacement probability for nondecreasing d, via the
    direct constrained sum with a fixed (generous) tail length."""
    k = len(dvec)
    pre = (1 - q) ** k * q ** (-(k * (k + 1) // 2)) * poch_inf(q)
    for m in range(1, k):
        pre *= poch(q, dvec[m] - dvec[m - 1])
    total = 0.0

    def rec(m: int, avec: list[int]) -> None:
        nonlocal total
        if m == k - 1:
            amin = max(0, -dvec[0] - sum(avec))
            for ak in range(amin, amin + tail_terms):
                a = avec + [ak]
                b = [dvec[0] + sum(a)]
                for i in range(1, k):
                    b.append(dvec[i] - dvec[i - 1] - a[i - 1])
                expo = sum(
                    (b[i] + 1) * (a[j] + 1)
                    for i in range(k)
                    for j in range(i, k)
                )
                den = 1.0
                for i in range(k):
                    den *= poch(q, b[i]) * poch(q, a[i])
                total += q**expo / den
            return
        for am in range(0, dvec[m + 1] - dvec[m] + 1):
            rec(m + 1, avec + [am])

    rec(0, [])
    return pre * total


@cache
def partitions_by_size(nmax: int) -> tuple[tuple[int, ...], ...]:
    """All partitions with total size <= nmax, as non-increasing tuples;
    enumerated once per nmax in a process."""
    acc: list[tuple[int, ...]] = []

    def rec(remaining: int, maxpart: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            acc.append(prefix)
            return
        for part in range(min(remaining, maxpart), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    for n in range(nmax + 1):
        rec(n, n if n else 1, ())
    return tuple(acc)


def diagram_pinned_prob(
    q: float, pins: list[tuple[int, int]], size_cap: int = 42
) -> float:
    """P(lambda_x = y for all (x, y) pins) under P(lambda) ∝ q^|lambda|,
    by enumerating every diagram of size <= size_cap.

    The neglected mass is at most sum_{n > size_cap} p(n) q^n, far below
    1e-9 at q <= 0.5 with the default cap.
    """
    tot = 0.0
    for lam in partitions_by_size(size_cap):
        ok = True
        for x, y in pins:
            lx = lam[x - 1] if x <= len(lam) else 0
            if lx != y:
                ok = False
                break
        if ok:
            tot += q ** sum(lam)
    return tot * poch_inf(q)


def pins_from_gap_coords(
    b: tuple[int, ...], a: tuple[int, ...]
) -> list[tuple[int, int]]:
    """Row pins (x_m, y_m) encoded by gap coordinates:
    x_m = b_1+...+b_m + m, y_m = a_m + ... + a_k."""
    k = len(b)
    return [
        (sum(b[:m]) + m, sum(a[m - 1 :])) for m in range(1, k + 1)
    ]


def count_inversions(seq) -> int:
    seq = list(seq)
    return sum(
        1
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
        if seq[i] > seq[j]
    )


def pair_counts(values) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(r, ell) of a word by direct pair comparison: r_i counts the smaller
    values to the right of i, ell_i the larger values to its left."""
    n = len(values)
    r = tuple(sum(1 for j in range(i + 1, n) if values[j] < values[i]) for i in range(n))
    ell = tuple(sum(1 for j in range(i) if values[j] > values[i]) for i in range(n))
    return r, ell


def left_walk(r_left, x: int) -> tuple[int, int]:
    """(left inversions, final state) of a leftward chain started at state
    x: it meets the right counts r_left, nearest first, and counts one left
    inversion where a right count is above the state, else steps the state
    by one.  Started at r_j over the right counts left of j in a word, it
    gives the word's left count at j."""
    ell = 0
    for r in r_left:
        if r > x:
            ell += 1
        else:
            x += 1
    return ell, x


def sign_word(parts, lo: int, hi: int) -> tuple[int, ...]:
    """The +-1 word on positions lo..hi of the diagram with these weakly
    decreasing parts: position i is +1 exactly when i = k - lambda_k for
    some k >= 1, with lambda_k = 0 past the last part."""
    lam = list(parts) + [0] * max(0, hi - len(parts))
    plus = {k - lam[k - 1] for k in range(1, len(lam) + 1)}
    return tuple(1 if i in plus else -1 for i in range(lo, hi + 1))
