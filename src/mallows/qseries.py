"""q-series primitives: q-numbers, q-factorials, q-Pochhammer products.

Everything downstream (samplers, distribution formulas, the brute-force
oracle) is built from the quantities here, so this module is deliberately
small, exact where possible, and explicit about truncation error where not.

Notation used throughout the package:

    [m]_q  = 1 + q + ... + q^(m-1)                    (q-number)
    [n!]_q = prod_{i=1..n} (1-q^i)/(1-q)              (q-factorial)
    <n>_q  = prod_{k=1..n} (1-q^k)                    (finite product)
    <inf>_q = lim_n <n>_q                             (infinite product)

Infinite products are truncated adaptively using the elementary bound

    prod_{k>N} (1-q^k) >= 1 - q^(N+1)/(1-q),

never by a fixed term count, so accuracy is uniform in q.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

#: Token accepted by :func:`q_pochhammer` for the infinite product <inf>_q.
INFINITY = math.inf


@dataclass(frozen=True)
class QParam:
    """The deformation parameter q in (0,1) plus numeric tolerance policy.

    eps_series bounds the relative truncation error of infinite series and
    products.
    """

    q: float
    eps_series: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie strictly in (0,1), got {self.q}")
        if self.eps_series <= 0.0:
            raise DomainError("eps_series must be positive")


class KahanSum:
    """Compensated accumulator for series whose terms span many magnitudes."""

    __slots__ = ("value", "_c")

    def __init__(self) -> None:
        self.value = 0.0
        self._c = 0.0

    def add(self, x: float) -> float:
        y = x - self._c
        t = self.value + y
        self._c = (t - self.value) - y
        self.value = t
        return self.value


@dataclass(frozen=True)
class QPochhammerTable:
    """Memoized table of <n>_q for n = 0..N plus the certified infinite limit.

    values[0] = 1 and values[n] = values[n-1] * (1 - q^n); the sequence is
    strictly decreasing.  infinite_value is the partial product values[N] and
    infinite_error bounds |<inf>_q - infinite_value| (absolute).
    """

    q: float
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
def _build_table(q: float, eps_series: float, n_max: int) -> QPochhammerTable:
    vals = [1.0]
    prod = 1.0
    for k in range(1, n_max + 1):
        prod *= 1.0 - q**k
        vals.append(prod)
    err = prod * q ** (n_max + 1) / (1.0 - q)
    return QPochhammerTable(
        q=q, values=tuple(vals), infinite_value=prod, infinite_error=err
    )


def pochhammer_table(p: QParam, n_max: int = 0) -> QPochhammerTable:
    """Return the (cached) table for p, covering at least n = 0..n_max."""
    need = max(_table_size(p), n_max, 64)
    # round up so repeated slightly-larger requests reuse one table
    size = 64
    while size < need:
        size *= 2
    return _build_table(p.q, p.eps_series, size)


def q_number(m: int, p: QParam) -> float:
    """The q-number [m]_q = sum_{k=0}^{m-1} q^k, with [0]_q = 0.

    >>> q_number(3, QParam(0.5))
    1.75
    """
    if m < 0:
        raise DomainError("q_number requires m >= 0")
    acc = KahanSum()
    term = 1.0
    for _ in range(m):
        acc.add(term)
        term *= p.q
    return acc.value


def q_factorial(n: int, p: QParam) -> float:
    """The q-factorial [n!]_q = prod_{i=1..n} (1-q^i)/(1-q); [0!]_q = 1.

    >>> q_factorial(3, QParam(0.5))
    2.625
    """
    if n < 0:
        raise DomainError("q_factorial requires n >= 0")
    table = pochhammer_table(p, n)
    return table.value(n) / (1.0 - p.q) ** n


def q_pochhammer(n: int | float, p: QParam) -> tuple[float, float]:
    """<n>_q as (value, error_bound); pass INFINITY for the infinite product.

    Finite products are exact (error_bound 0).  The infinite product returns
    the partial product at a depth guaranteeing relative error <= eps_series,
    and reports the achieved absolute bound.
    """
    if n == INFINITY:
        table = pochhammer_table(p)
        return table.infinite_value, table.infinite_error
    n = int(n)
    if n < 0:
        raise DomainError("q_pochhammer requires n >= 0 or INFINITY")
    table = pochhammer_table(p, n)
    return table.value(n), 0.0


def q_binomial(b: int, a: int, p: QParam) -> float:
    """Gaussian binomial <b+a>_q / (<b>_q <a>_q).

    Equals the generating function sum of q^|lam| over Young diagrams fitting
    in a b x a box; equals 1 whenever a = 0 or b = 0.
    """
    if a < 0 or b < 0:
        raise DomainError("q_binomial requires a, b >= 0")
    table = pochhammer_table(p, a + b)
    return table.value(a + b) / (table.value(a) * table.value(b))
