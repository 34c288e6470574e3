"""Seeded geometric-draw streams on top of a counter-based generator.

A GeomStream owns a Philox generator keyed by a sha256 hash of (seed, label),
so independent substreams for parallel Monte Carlo are derived by name rather
than by splitting state: ``stream.spawn("worker-3")`` yields the same
substream no matter how much the parent has already consumed.

Draws map uniforms U in (0,1] through the inverse CDF:

    geometric, P(k) = (1-q) * q^k:   k = floor(log U / log q)
    truncated to {0..limit}:         same, with U rescaled to the
                                     support's CDF range

both exact and O(1) per draw.

``skip(n)`` leaves the stream where ``uniforms(n)`` would without making the
draws: a counter-based generator jumps past whole counter steps.  The
inversion kernel skips the overshoots it never reads at width 1.
"""
from __future__ import annotations

import hashlib
import math
import operator

import numpy as np

from .errors import DomainError


def _philox_key(seed: int, label: str) -> np.ndarray:
    digest = hashlib.sha256(f"mallows:{seed}:{label}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def _geometrics_of_logs(log_u: np.ndarray, log_r: float | np.ndarray) -> np.ndarray:
    """floor(log U / log r) as int64, dividing in place on log_u: the inverse
    CDF of a geometric with ratio r, for uniforms whose logs, and ratios
    whose logs, the caller has already taken."""
    return np.divide(log_u, log_r, out=log_u).astype(np.int64)


def _size(n: int) -> int:
    """A draw count, refused before any bookkeeping when it is not an
    integer (numpy integers pass) or is negative."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"draw count must be an integer, got {n!r}") from None
    if n < 0:
        raise DomainError(f"draw count must be >= 0, got {n}")
    return n


class GeomStream:
    """Reproducible stream of geometric draws with ratio q.

    Attributes: ``seed`` (the 64-bit master seed, an integer: a float is
    refused, not truncated), ``q`` (default ratio of geometric draws),
    ``counter`` (uniforms consumed so far, bookkeeping).
    """

    def __init__(self, seed: int, q: float, _label: str = "root") -> None:
        if not (0.0 < q < 1.0):
            raise DomainError(f"stream ratio q must lie in (0,1), got {q}")
        try:
            self.seed = operator.index(seed)
        except TypeError:
            raise DomainError(f"seed must be an integer, got {seed!r}") from None
        self.q = float(q)
        self.counter = 0
        self._label = _label
        self._gen = np.random.Generator(np.random.Philox(key=_philox_key(self.seed, _label)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GeomStream(seed={self.seed}, q={self.q}, counter={self.counter}, "
            f"label={self._label!r})"
        )

    def spawn(self, label: str | int) -> "GeomStream":
        """Independent substream addressed by name, regardless of consumption."""
        return GeomStream(self.seed, self.q, _label=f"{self._label}/{label}")

    # -- uniforms ----------------------------------------------------------
    def uniform(self) -> float:
        """One uniform on (0,1] (never 0, so logs are safe)."""
        self.counter += 1
        return 1.0 - self._gen.random()

    def uniforms(self, n: int) -> np.ndarray:
        n = _size(n)
        self.counter += n
        u = self._gen.random(n)
        return np.subtract(1.0, u, out=u)

    def skip(self, n: int) -> None:
        """Leave the stream where uniforms(n) would, counter included,
        without making the n draws.  Philox makes four 64-bit words, one
        per uniform, a counter step and keeps the unread words of the
        current step.  Up to that many are read from what is kept; for
        more, the counter advances past the whole steps (which drops what
        is kept) and the 0-3 words left over are drawn."""
        n = _size(n)
        self.counter += n
        bits = self._gen.bit_generator
        kept = 4 - bits.state["buffer_pos"]
        if n > kept:
            steps, n = divmod(n - kept, 4)
            bits.advance(steps)
        bits.random_raw(n)

    # -- geometric laws ----------------------------------------------------
    def geometrics(self, n: int) -> np.ndarray:
        """n draws from P(k) = (1-q) q^k.

        The log and the division run in place on the fresh uniforms.  U lies in
        (0,1] and log q < 0, so the quotient is >= 0 (or -0.0) and below 2^63,
        and the int64 truncation is the floor."""
        u = self.uniforms(n)
        return _geometrics_of_logs(np.log(u, out=u), math.log(self.q))

    def truncated_geometrics(self, limit: np.ndarray) -> np.ndarray:
        """One draw per entry of limit, a 1-D integer array of limits >= 1:
        draw i from P(k) proportional to q^k on {0..limit[i]} (exact
        inverse CDF)."""
        if (
            not isinstance(limit, np.ndarray)
            or limit.dtype.kind not in "iu"
            or limit.ndim != 1
            or not np.all(limit >= 1)
        ):
            raise DomainError("need a 1-D integer array of limits >= 1, one per draw")
        w = self.uniforms(limit.size)
        w *= 1.0 - self.q ** (limit + 1)
        with np.errstate(divide="ignore"):  # log 0 at U = 1 where q^(limit+1) < 2^-53
            np.log(np.subtract(1.0, w, out=w), out=w)
        w /= math.log(self.q)  # so +inf there, capped first
        return np.minimum(w, limit, out=w).astype(np.int64)
