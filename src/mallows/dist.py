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

Each evaluation reads <n>_q off one tuple of table values and fetches a
longer table only when an index runs past its end (tables share entries).
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError
from .perm import inversions
from .qseries import UNDERFLOW, QParam, _integers, normal_table, pochhammer_table, quotient


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

    q: float
    radius: int
    probs: dict[int, float] = field(compare=False)
    tail_bound: float = 0.0

    def prob(self, d: int) -> float:
        return self.probs.get(d, 0.0)


@dataclass(frozen=True, init=False)
class FddQuery:
    """A finite-dimensional displacement event: sigma(m) = m + d[m-1] for
    m = 1..k.  The d need not be sorted; colliding implied values make the
    event impossible.  Each d_m must be an integer (int or numpy integer):
    a float, even 1.0, is refused rather than rounded to another event."""

    k: int
    d: tuple[int, ...]

    def __init__(self, k: int, d) -> None:
        if k < 1:
            raise DomainError("k must be >= 1")
        d = _integers(d, "displacements")
        if len(d) != k:
            raise DomainError(f"expected {k} displacements, got {len(d)}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)


def displacement_pmf(p: QParam, radius: int) -> DisplacementPmf:
    """Tabulate the displacement law on [-radius..radius].

    P(D=d) for d >= 0 is the k=1 fdd series
    (1-q)<inf> sum_l q^(l^2+l*d+2l+d)/(<l+d><l>), so each entry is the value
    fdd_probability(p, FddQuery(1, (d,)), p.eps_series) returns.  The law is
    symmetric about 0, so only d >= 0 is evaluated and the negative half
    reuses the same floats (symmetry is bit-exact).  The tail bound
    2 q^radius dominates P(|D| > radius) because |D| > m forces more than m
    right (or left) inversions at the position.
    """
    (radius,) = _integers((radius,), "radius")
    if radius < 0:
        raise DomainError("radius must be >= 0")
    probs: dict[int, float] = {}
    for d in range(radius + 1):
        probs[d] = probs[-d] = _fdd_sorted((d,), p, p.eps_series)[0]
    return DisplacementPmf(
        q=p.q, radius=radius, probs=probs, tail_bound=2.0 * p.q**radius
    )


def joint_rl_pmf(p: QParam, r: int, ell: int) -> float:
    """P(R=r, L=ell) = (1-q) q^(r*ell+r+ell) <inf> / (<r><ell>).

    Both marginals are geometric with ratio q; the coupling factor q^(r*ell)
    makes large R and large L repel each other.
    """
    r, ell = _integers((r, ell), "r and ell")
    if r < 0 or ell < 0:
        raise DomainError("r and ell must be >= 0")
    q = p.q
    inf_val = pochhammer_table(p).infinite_value
    vals = pochhammer_table(p, max(r, ell)).values
    return quotient((1.0 - q) * q ** (r * ell + r + ell) * inf_val, vals[r] * vals[ell], p)


def conditional_l_given_r(p: QParam, r: int, ell: int) -> float:
    """P(L=ell | R=r) = q^(ell*(r+1)) <inf> / (<r><ell>).

    Given R=r, L is the length of row r+1 of the q^|lambda| diagram, so this
    is block_p2 at k=1.  At ell=0 it is <inf>/<r>, the probability that the
    leftward reconstruction chain started from state r never sees a trivial
    transition.
    """
    r, ell = _integers((r, ell), "r and ell")
    if r < 0 or ell < 0:
        raise DomainError("r and ell must be >= 0")
    return block_p2(p, (r,), (ell,))


def _tail_series(p: QParam, vals: tuple[float, ...], e: int, big_a: int, big_r: int,
                 tol: float) -> tuple[float, float, float, float]:
    """The inner sum over the free gap a_k of q^(A(b1+1) + (a_k+1)(b1+1+R))
    / (<b1><a_k>), with b1 = e + a_k and a_k from max(0, -e), as
    (sum, error bound, <b1>, <a_k>) at the term where it stopped.

    Terms are summed with Kahan compensation until a term is at most tol
    times the sum and the ratio of the next term to it is at most q^2; the
    geometric tail from there bounds the truncation.  vals is a table of p
    to start from.  The entry is kept in p.memo under (e, A, R, tol).
    """
    key = (e, big_a, big_r, tol)
    hit = p.memo.get(key)
    if hit is not None:
        return hit
    q = p.q
    n_vals = len(vals)
    q2 = q * q
    a_k = max(0, -e)
    b1 = e + a_k
    top = max(b1, a_k) - a_k  # b1 and a_k step together
    expo = big_a * (b1 + 1) + (a_k + 1) * (b1 + 1 + big_r)
    step = big_a + b1 + big_r + a_k + 3  # expo's next increment; grows by 2
    inner = comp = 0.0  # compensated (Kahan) sum
    while True:
        if a_k + top >= n_vals:
            vals = pochhammer_table(p, a_k + top).values
            n_vals = len(vals)
        den = vals[b1] * vals[a_k]
        if den == 0.0:
            raise DomainError(UNDERFLOW.format(q=q))
        term = q**expo / den
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
    out = p.memo[key] = inner, term * ratio / (1.0 - ratio), vals[b1], vals[a_k]
    return out


def _gap_weights(p: QParam, gaps: tuple[int, ...],
                 vals: tuple[float, ...]) -> tuple[tuple[int, float, float], ...]:
    """(head, weight, den_min) for each head of _fdd_sorted's compositions
    of the fixed gaps, in order of first appearance: the sum of q^C /
    den_rest in itertools.product order, and the smallest den_rest.  Both
    depend on q and the gaps alone, so they are kept in p.memo under
    ("weights", gaps), shared by every d_1.  A den_rest of 0 or a weight
    that overflows is refused.  vals is a table of p covering every gap.
    """
    key = ("weights", gaps)
    hit = p.memo.get(key)
    if hit is not None:
        return hit
    q = p.q
    weights: dict[int, list[float]] = {}
    for a_head in itertools.product(*[range(g + 1) for g in gaps]):
        den_rest = 1.0
        big_c = big_r = 0  # C of _fdd_sorted
        for g, a_j in zip(gaps, a_head):
            den_rest *= vals[g - a_j]  # the row gap b_j fixed by a_head
            big_c += (a_j + 1) * big_r
            big_r += g - a_j + 1
        for a_j in a_head:
            den_rest *= vals[a_j]
        weight = q**big_c / den_rest if den_rest else math.inf
        if weight == math.inf:
            raise DomainError(UNDERFLOW.format(q=q))
        entry = weights.setdefault(sum(a_head), [0.0, den_rest])
        entry[0] += weight
        entry[1] = min(entry[1], den_rest)
    out = p.memo[key] = tuple((h, w, den) for h, (w, den) in weights.items())
    return out


def _fdd_sorted(d: tuple[int, ...], p: QParam, tol: float) -> tuple[float, float]:
    """(value, error bound) for nondecreasing d.

    Enumerates gap variables a_1..a_{k-1} over their finite ranges
    0 <= a_m <= d_{m+1}-d_m; the free tail variable a_k (bounded below so
    every row gap b_m stays nonnegative) is summed by _tail_series.
    A term's exponent sum_j (a_j+1)(b_1+1 + ... + b_j+1) is, by integer prefix
    sums of the fixed gaps, A (b1+1) + C + (a_k+1)(b1+1+R), and its
    denominator is den_rest <b1><a_k> with den_rest the <n>_q of the fixed
    gaps.  With head = a_1+...+a_{k-1}, b1 = d_1 + head + a_k, A = head+k-1
    and R = d_k-d_1-head+k-1 depend on the composition a_head only through
    head, while C and den_rest factor out of the sum over a_k and depend on
    the gaps alone.  So each head's total weight q^C / den_rest comes from
    _gap_weights, once per p and gap tuple, and each head's tail sum is
    evaluated once per p under the inner key (d_1+head, A, R, tol), shared
    by every query with the same (d_1, d_k, head).  The value is
    pref * sum_h weight_h tail_h and the bound |pref| sum_h weight_h err_h
    + |value| rel_inf.  A head whose smallest den_rest times <b1><a_k> at
    the tail's last term underflows to 0 is refused: rounding is monotone,
    so that is where some composition's full denominator does.  A value
    below the normal doubles is refused too.  At k=1 the weight is exactly
    1.0.  The result is kept in p.memo under (d, tol), so p evaluates each
    series once.
    """
    key = (d, tol)
    hit = p.memo.get(key)
    if hit is not None:
        return hit
    q = p.q
    k = len(d)
    # refused before any term: where <inf>_q is not a normal double, the
    # series would run until a denominator underflows
    table = normal_table(p, "the value cannot be returned", d[-1] - d[0] + 8)
    vals = table.values
    try:
        shift = q ** -(k * (k + 1) // 2)
    except OverflowError:
        raise DomainError(
            f"q={q}: q^-{k * (k + 1) // 2} overflows; the value cannot be returned"
        ) from None
    pref = (1.0 - q) ** k * shift * table.infinite_value
    gaps = tuple(d[m] - d[m - 1] for m in range(1, k))
    for g in gaps:
        pref *= vals[g]
    span = d[-1] - d[0] + k - 1
    terms = []
    for head, weight, den_min in _gap_weights(p, gaps, vals):
        tail = _tail_series(p, vals, d[0] + head, head + k - 1, span - head, tol)
        if den_min * tail[2] * tail[3] == 0.0:
            raise DomainError(UNDERFLOW.format(q=q))
        terms.append((weight, tail))
    value = _normal(pref * math.fsum(w * tail[0] for w, tail in terms), q)
    err = 0.0
    for w, tail in terms:
        err += w * tail[1]
    rel_inf = table.infinite_error / table.infinite_value
    out = p.memo[key] = value, abs(pref) * err + abs(value) * rel_inf
    return out


def fdd_probability(p: QParam, query: FddQuery, tol: float) -> tuple[float, float]:
    """P(sigma(m) = m + d_m for m = 1..k) as (value, error bound).

    For nondecreasing d the sorted series is evaluated directly.  Otherwise
    the implied values v_m = d_m + m are sorted increasingly, the sorted
    query is evaluated, and the result is multiplied by q^inv(v): each
    inversion of the value word costs exactly one factor q.  Colliding
    implied values mean the event is impossible and the exact answer (0, 0)
    is returned rather than an error; a possible event whose value
    underflows to 0 or to a subnormal double raises DomainError.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol}")
    d = query.d
    vals = [x + m for m, x in enumerate(d, 1)]
    if len(set(vals)) != len(vals):
        return 0.0, 0.0
    ranked = sorted(vals)
    if ranked == vals:
        return _fdd_sorted(d, p, tol)
    value, err = _fdd_sorted(tuple(v - m for m, v in enumerate(ranked, 1)), p, tol)
    factor = p.q ** inversions(vals)
    return _normal(factor * value, p.q), factor * err


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
    vals = pochhammer_table(p, max(b) + max(a)).values
    num = pochhammer_table(p).infinite_value
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
