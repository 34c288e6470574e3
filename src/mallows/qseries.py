"""q-series primitives: q-factorials and q-Pochhammer products.

Everything downstream (samplers, distribution formulas, the brute-force
oracle) is built from the quantities here, so this module is deliberately
small, exact where possible, and explicit about truncation error where not.

Notation used throughout the package:

    [n!]_q = prod_{i=1..n} (1-q^i)/(1-q)              (q-factorial)
    <n>_q  = prod_{k=1..n} (1-q^k)                    (finite product)
    <inf>_q = lim_n <n>_q                             (infinite product)

Infinite products are truncated adaptively using the elementary bound

    prod_{k>N} (1-q^k) >= 1 - q^(N+1)/(1-q),

never by a fixed term count, so accuracy is uniform in q.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DomainError

#: Token accepted by :func:`q_pochhammer` for the infinite product <inf>_q.
INFINITY = math.inf

#: refusal where a denominator, a product of <n>_q values or of factors
#: 1-q, underflows to 0 (for q near 1)
UNDERFLOW = "q={q}: a denominator underflows to 0; the value cannot be returned"


def _integers(xs, what: str) -> tuple[int, ...]:
    """xs as ints, or DomainError where one is not an integer (int or numpy
    integer): a float, even 1.0, is refused rather than rounded to another
    count or event."""
    try:
        return tuple(map(operator.index, xs))
    except TypeError:
        raise DomainError(f"{what} must be integers, got {xs!r}") from None


@dataclass(frozen=True)
class QParam:
    """The deformation parameter q in (0,1) plus numeric tolerance policy.

    eps_series bounds the relative truncation error of infinite series and
    products.

    memo holds what this instance has evaluated, for as long as the caller
    holds it: the rounded table size under the key "table_size", each
    sorted fdd series as (value, bound) under (d, tol), each inner tail
    sum of those series as (sum, bound, <b1>, <a_k>) under (e, A, R, tol),
    shared by every sorted series with the same (d_1, d_k, head), and the
    composition weights of each gap tuple under ("weights", gaps) (see
    dist._fdd_sorted).  Those are deterministic in (q, eps_series) and the
    key, so a hit is exactly what a fresh evaluation returns; refusals are
    raised and never stored.  The memo takes no part in __init__, ==, hash
    or repr, so equal parameters still compare and hash equal, but they
    never share entries.  A defect planted with monkeypatch must therefore
    be checked through a fresh QParam: an instance that evaluated before
    the patch answers from its memo.
    """

    q: float
    eps_series: float = 1e-12
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie strictly in (0,1), got {self.q}")
        if not 0.0 < self.eps_series < math.inf:
            raise DomainError(f"eps_series must be finite and > 0, got {self.eps_series}")


@dataclass(frozen=True)
class QPochhammerTable:
    """Memoized table of <n>_q for n = 0..N plus the certified infinite limit.

    values[0] = 1 and values[n] = values[n-1] * (1 - q^n); the sequence is
    strictly decreasing.  infinite_value is the partial product values[N] and
    infinite_error bounds |<inf>_q - infinite_value| (absolute).
    """

    values: tuple[float, ...]
    infinite_value: float
    infinite_error: float

    def value(self, n: int) -> float:
        return self.values[n]


def _table_size(p: QParam) -> int:
    # smallest N with q^(N+1)/(1-q) <= eps_series
    q = p.q
    n = math.ceil(math.log(p.eps_series * (1.0 - q)) / math.log(q)) - 1
    return max(n, 1)


@lru_cache(maxsize=None)
def _build_table(q: float, n_max: int) -> QPochhammerTable:
    vals = [1.0]
    prod = 1.0
    for k in range(1, n_max + 1):
        prod *= 1.0 - q**k
        vals.append(prod)
        if prod == 0.0:
            # every later factor lies in (0, 1], so every later entry is 0.0
            vals.extend([0.0] * (n_max - k))
            break
    err = prod * q ** (n_max + 1) / (1.0 - q)
    return QPochhammerTable(values=tuple(vals), infinite_value=prod, infinite_error=err)


def pochhammer_table(p: QParam, n_max: int = 0) -> QPochhammerTable:
    """Return the (cached) table for p, covering at least n = 0..n_max."""
    # round up to a power of two >= 64 so repeated slightly-larger requests
    # reuse one table; p's own size is rounded once and kept in its memo
    size = p.memo.get("table_size")
    if size is None:
        size, need = 64, _table_size(p)
        while size < need:
            size *= 2
        p.memo["table_size"] = size
    while size < n_max:
        size *= 2
    return _build_table(p.q, size)


def normal_table(p: QParam, refusal: str, n_max: int = 0) -> QPochhammerTable:
    """pochhammer_table(p, n_max), or DomainError ending in refusal where
    <inf>_q is not a normal double (from q ~ 0.9977)."""
    table = pochhammer_table(p, n_max)
    if table.infinite_value < sys.float_info.min:
        raise DomainError(f"<inf>_q = {table.infinite_value!r} is not a normal "
                          f"double at q={p.q}; {refusal}")
    return table


def quotient(num: float, den: float, p: QParam) -> float:
    """num / den, or DomainError where den underflowed to 0."""
    if den == 0.0:
        raise DomainError(UNDERFLOW.format(q=p.q))
    return num / den


def q_factorial(n: int, p: QParam) -> float:
    """The q-factorial [n!]_q = prod_{i=1..n} (1-q^i)/(1-q); [0!]_q = 1.

    DomainError where (1-q)^n underflows to 0.

    >>> q_factorial(3, QParam(0.5))
    2.625
    """
    (n,) = _integers((n,), "q_factorial's n")
    if n < 0:
        raise DomainError("q_factorial requires n >= 0")
    # n factors, not the depth of p's table, which grows like 1/(1-q)
    return quotient(_build_table(p.q, n).value(n), (1.0 - p.q) ** n, p)


def _product_error(q: float, n: int, value: float) -> float:
    """Absolute bound on |value - <n>_q| for value the table's rounded
    product of the rounded factors fl(1 - fl(q**k)), k = 1..n.

    With u = 2^-52 (twice the unit roundoff, which also covers rounding
    in this evaluation) and eta = 2^-1074: q**k is within u q^k + eta and
    the subtraction rounds once, so factor k is (1-q^k)(1+e_k) with
    |e_k| <= u + (1+u)(u q^k + eta)/(1-q^k), the cancellation term that
    grows near q = 1.  Each product rounds by u relative or eta absolute.
    With S the sum of e_k + u + e_k u and T = expm1(S), the computed value
    is <n>_q (1+t) + a with |t| <= T and |a| <= n eta (1+T), which gives
    |value - <n>_q| <= (value T + n eta (1+T)) / (1-T).
    """
    u, eta = 2.0**-52, 2.0**-1074
    e = math.fsum(u + (1.0 + u) * (u * q**k + eta) / (1.0 - q**k) for k in range(1, n + 1))
    t = math.expm1(e * (1.0 + u) + n * u)
    if not t < 1.0:
        raise DomainError(f"no error bound for <{n}>_q at q={q}: rounding may exceed the value")
    return (value * t + n * eta * (1.0 + t)) / (1.0 - t)


def q_pochhammer(n: int | float, p: QParam) -> tuple[float, float]:
    """<n>_q as (value, error_bound); pass INFINITY for the infinite product.

    A finite product comes with an absolute bound on its rounding error
    (_product_error; 0 only for the empty product n = 0).  The infinite
    product returns the partial product <N>_q at a depth N guaranteeing
    relative truncation error <= eps_series, with an absolute bound that
    adds the rounding of its N factors to the truncation, or DomainError
    where it is not a normal double.
    """
    if n == INFINITY:
        table = normal_table(p, "no certified value can be returned")
        value = table.infinite_value
        return value, table.infinite_error + _product_error(p.q, len(table.values) - 1, value)
    (n,) = _integers((n,), "q_pochhammer's n")
    if n < 0:
        raise DomainError("q_pochhammer requires n >= 0 or INFINITY")
    value = _build_table(p.q, n).value(n)
    return value, _product_error(p.q, n, value)
