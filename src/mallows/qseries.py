"""q-series primitives: q-factorials and q-Pochhammer products.

Everything downstream (samplers, distribution formulas, the brute-force
oracle) is built from the quantities here, so this module is deliberately
small, exact where possible, and explicit about truncation error where not.
The laws read <n>_q from pochhammer_table, a tuple whose last entry stands
for <inf>_q (truncation_error bounds the gap), a finite product from its n
factors; both samplers' part searches read one exact table of -log <n>_q
(log_table).  The tables' edges are decided here: _doubled refuses past
MAX_TABLE, and _normal_inf, on q's product table, refuses where <inf>_q is
not a normal double and returns the table it checked, for pochhammer_table
and euler_table alike.

Notation used throughout the package:

    [n!]_q = prod_{i=1..n} (1-q^i)/(1-q)              (q-factorial)
    <n>_q  = prod_{k=1..n} (1-q^k)                    (finite product)
    <inf>_q = lim_n <n>_q                             (infinite product)

Infinite products are truncated adaptively using the elementary bound

    prod_{k>N} (1-q^k) >= 1 - q^(N+1)/(1-q),

never by a fixed term count, so accuracy is uniform in q.  _horizon is
the package's one rule for that depth; tables take it at EPS_SERIES.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import DomainError

#: Token accepted by :func:`q_pochhammer` for the infinite product <inf>_q.
INFINITY = math.inf

#: the relative truncation error of every infinite series and product
EPS_SERIES = 1e-12

#: the most entries of a table of <n>_q; a larger one (from q ~ 0.9999906)
#: is refused before it is built
MAX_TABLE = 2**22

#: the most compositions of its gaps, prod (d_(m+1) - d_m + 1), a sorted
#: fdd series sums over; a query with more is refused before any table is
#: read (dist.fdd_probability)
MAX_COMPOSITIONS = 2**20

#: the most tables each cache keeps, the least recently read dropped first;
#: a laws pass reads about 6 product tables and 2 log tables at one q
CACHE_TABLES = 32

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
    """The deformation parameter q in (0,1); eps_series is the class
    attribute EPS_SERIES.  memo is where dist keeps its evaluations at q
    (see dist); it takes no part in __init__, ==, hash or repr."""

    q: float
    eps_series: ClassVar[float] = EPS_SERIES
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie strictly in (0,1), got {self.q}")


def _horizon(q: float, eps: float) -> int:
    """Smallest N >= 0 with q^(N+1)/(1-q) <= eps: the depth past which an
    infinite product or series of ratio q is truncated, and the deepest
    part the inversion kernel's tail search draws (eps = its eps_tv, whose
    name the refusals carry).  The log estimate can land one past it where
    the bound meets eps exactly, so it is stepped to that N."""
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps_tv must be finite and > 0, got {eps!r}")
    tail = eps * (1.0 - q)
    if tail == 0.0:
        raise DomainError(f"eps_tv * (1-q) underflows to 0 at eps_tv={eps!r}")
    x = max(0, math.ceil(math.log(tail) / math.log(q) - 1.0))
    while x > 0 and q**x / (1.0 - q) <= eps:
        x -= 1
    while q ** (x + 1) / (1.0 - q) > eps:
        x += 1
    return x


def _doubled(q: float, size: int, n: int) -> int:
    """size doubled until it covers n, or DomainError where that is past
    MAX_TABLE, before any table is built (every product table's refusal)."""
    while size < n:
        size *= 2
    if size > MAX_TABLE:
        raise DomainError(f"q={q}: a table of {size} entries of <n>_q is past "
                          f"MAX_TABLE={MAX_TABLE}; no value can be returned")
    return size


@lru_cache(maxsize=CACHE_TABLES)
def _table_size(q: float) -> int:
    """_horizon(q, EPS_SERIES) rounded up to a power of two >= 64, so
    slightly larger requests reuse q's one table."""
    return _doubled(q, 64, _horizon(q, EPS_SERIES))


@lru_cache(maxsize=CACHE_TABLES)
def _build_table(q: float, n_max: int) -> tuple[float, ...]:
    """<n>_q for n = 0..n_max: entry n is entry n-1 times fl(1 - q**n)."""
    vals = [1.0]
    prod = 1.0
    for k in range(1, n_max + 1):
        prod *= 1.0 - q**k
        vals.append(prod)
        if prod == 0.0:
            break
    # every factor lies in (0, 1], so every entry past a 0.0 is 0.0
    return tuple(vals) + (0.0,) * (n_max + 1 - len(vals))


def pochhammer_table(p: QParam, n_max: int = 0) -> tuple[float, ...]:
    """The (cached) table of <n>_q for p, n = 0.._table_size(p.q), doubled
    until it covers n_max; its last entry stands for <inf>_q.  The table of
    every law, so DomainError where <inf>_q is not a normal double."""
    return _normal_inf(p.q, "the value cannot be returned", n_max)


def truncation_error(q: float, table: tuple[float, ...]) -> float:
    """Bound on |<inf>_q - table[-1]| for a table of <n>_q, n = 0..N: the
    factors past N multiply to at least 1 - q^(N+1)/(1-q)."""
    return table[-1] * q ** len(table) / (1.0 - q)


def log_table(q: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(-log <j>_q, log q^j) for j = 0..n: read-only float64 views of the
    cached table of the smallest power-of-two size >= max(64, n)."""
    neg, log_qpow = _log_table(q, _doubled(q, 64, n))
    return neg[: n + 1], log_qpow[: n + 1]


@lru_cache(maxsize=CACHE_TABLES)
def _log_table(q: float, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(-log <j>_q, log q^j) for j = 0..size, read-only; log q^j is -inf
    where q^j underflows (never a part).  A second cumsum adds back each
    step's TwoSum rounding error (a plain one drifts by 1e-8 at q = 0.9999),
    so entry j is the sum of its terms to an ulp, whatever the size."""
    qpow = q ** np.arange(size + 1)
    terms = np.concatenate(([0.0], -np.log1p(-qpow[1:])))
    neg = np.cumsum(terms)
    step = neg[1:] - neg[:-1]
    neg[1:] += np.cumsum((neg[:-1] - (neg[1:] - step)) + (terms[1:] - step))
    with np.errstate(divide="ignore"):
        tables = neg, np.log(qpow)
    for a in tables:
        a.flags.writeable = False
    return tables


def _normal_inf(q: float, refusal: str, n_max: int = 0) -> tuple[float, ...]:
    """q's product table, n = 0.._table_size(q) doubled until it covers
    n_max (refused past MAX_TABLE first), or DomainError ending in refusal
    where <inf>_q, the entry at _table_size(q), is not a normal double
    (from q ~ 0.9977): the one decision for every law and both samplers.
    The message names exp of log_table's sum: 1e-13 relative off at the
    edge, where exp magnifies the last ulp of a sum near 708, and the
    nearest double deeper in the subnormals."""
    size = _table_size(q)
    wanted = _doubled(q, size, n_max)
    table = _build_table(q, size)
    if table[-1] < sys.float_info.min:
        value = math.exp(-_log_table(q, size)[0][-1])
        raise DomainError(f"<inf>_q = {value!r} is not a normal double at q={q}; {refusal}")
    return table if wanted == size else _build_table(q, wanted)


def euler_table(q: float) -> tuple[np.ndarray, np.ndarray]:
    """log_table(q, _table_size(q)), the table of the Euler-measure part
    searches, or DomainError where <inf>_q is not a normal double."""
    table = _normal_inf(q, "Euler-measure diagrams cannot be drawn")
    return log_table(q, len(table) - 1)


def quotient(num: float, den: float, p: QParam) -> float:
    """num / den, or DomainError where den underflowed to 0."""
    if den == 0.0:
        raise DomainError(UNDERFLOW.format(q=p.q))
    return num / den


def q_factorial(n: int, p: QParam) -> float:
    """The q-factorial [n!]_q = prod_{i=1..n} (1-q^i)/(1-q); [0!]_q = 1.

    DomainError where (1-q)^n underflows to 0, or n > MAX_TABLE.

    >>> q_factorial(3, QParam(0.5))
    2.625
    """
    (n,) = _integers((n,), "q_factorial's n")
    if n < 0:
        raise DomainError("q_factorial requires n >= 0")
    # n factors, not the depth of p's table, which grows like 1/(1-q)
    return quotient(_build_table(p.q, _doubled(p.q, n, n))[n], (1.0 - p.q) ** n, p)


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
    (_product_error; 0 only for the empty product n = 0), and n >
    MAX_TABLE is refused.  The infinite product returns the partial product
    <N>_q at a depth N guaranteeing relative truncation error <=
    EPS_SERIES, with an absolute bound that adds the rounding of its N
    factors to the truncation, or DomainError where it is not a normal
    double.
    """
    if n == INFINITY:
        table = pochhammer_table(p)
        value = table[-1]
        return value, truncation_error(p.q, table) + _product_error(p.q, len(table) - 1, value)
    (n,) = _integers((n,), "q_pochhammer's n")
    if n < 0:
        raise DomainError("q_pochhammer requires n >= 0 or INFINITY")
    value = _build_table(p.q, _doubled(p.q, n, n))[n]
    return value, _product_error(p.q, n, value)
