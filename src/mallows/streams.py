"""Seeded geometric-draw streams on top of a counter-based generator.

A GeomStream owns a Philox generator keyed by a sha256 hash of (seed, label),
so independent substreams for parallel Monte Carlo are derived by name rather
than by splitting state: ``stream.spawn("worker-3")`` yields the same
substream no matter how much the parent has already consumed.

Draws map uniforms U in (0,1] through the inverse CDF:

    geometric, P(k) = (1-ratio) * ratio^k:   k = floor(log U / log ratio)
    truncated to {0..limit}:                 same, with U rescaled to the
                                             support's CDF range

both exact and O(1) per draw.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import DomainError


def _philox_key(seed: int, label: str) -> np.ndarray:
    digest = hashlib.sha256(f"mallows:{seed}:{label}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def _size(n: int) -> int:
    """A draw count, refused before any bookkeeping when negative."""
    n = int(n)
    if n < 0:
        raise DomainError(f"draw count must be >= 0, got {n}")
    return n


class GeomStream:
    """Reproducible stream of geometric draws with ratio q.

    Attributes: ``seed`` (the 64-bit master seed), ``q`` (default ratio of
    geometric draws), ``counter`` (uniforms consumed so far, bookkeeping).
    """

    def __init__(self, seed: int, q: float, _label: str = "root") -> None:
        if not (0.0 < q < 1.0):
            raise DomainError(f"stream ratio q must lie in (0,1), got {q}")
        self.seed = int(seed)
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

    # -- geometric laws ----------------------------------------------------
    def geometrics(self, n: int, ratio: float | np.ndarray | None = None) -> np.ndarray:
        """n draws from P(k) = (1-r) r^k; r is ratio (default q) or one per draw.

        The log and the division run in place on the fresh uniforms.  U lies in
        (0,1] and log r < 0, so the quotient is >= 0 (or -0.0) and below 2^63,
        and the int64 truncation is the floor."""
        r = self.q if ratio is None else ratio
        u = self.uniforms(n)
        log_r = np.log(r) if isinstance(r, np.ndarray) else math.log(r)
        return np.divide(np.log(u, out=u), log_r, out=u).astype(np.int64)

    def truncated_geometrics(self, n: int, limit: int | np.ndarray) -> np.ndarray:
        """n draws from P(k) proportional to q^k on {0..limit} (exact inverse
        CDF); limit may also be an int array of n limits >= 1, one per draw.
        Limit 0 draws nothing, and a negative limit is refused."""
        if isinstance(limit, np.ndarray):
            if limit.shape != (_size(n),) or not np.all(limit >= 1):
                raise DomainError("need one limit >= 1 per draw")
        elif limit < 0:
            raise DomainError(f"limit must be >= 0, got {limit}")
        elif limit == 0:
            return np.zeros(_size(n), dtype=np.int64)
        w = self.uniforms(n)
        w *= 1.0 - self.q ** (limit + 1)
        with np.errstate(divide="ignore"):  # log 0 at U = 1 where q^(limit+1) < 2^-53
            np.log(np.subtract(1.0, w, out=w), out=w)
        w /= math.log(self.q)  # so +inf there, capped first
        return np.minimum(w, limit, out=w).astype(np.int64)
