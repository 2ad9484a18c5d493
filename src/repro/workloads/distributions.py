"""Sampling primitives for synthetic cache workloads.

The production traces the paper replays (Meta KV Cache, Twitter
cluster12) are not redistributable, so the workload generators build
synthetic equivalents from the published characteristics: Zipfian key
popularity, small-object-dominated size mixtures, 4:1 op-type ratios,
and steady key churn.  This module provides the deterministic,
vectorized sampling those generators share.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "ZipfSampler",
    "mix64",
    "key_uniform",
    "loguniform_sizes",
]

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 arrays.

    Used to derive *deterministic per-key* attributes (object size,
    small/large class) so that a key always has the same size no matter
    when or where it is sampled — a property the cache relies on.
    """
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        z = x
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def key_uniform(keys: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic uniform [0, 1) per key (salted)."""
    mixed = mix64(keys.astype(np.uint64) + np.uint64(salt))
    return (mixed >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def loguniform_sizes(
    u: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Map uniforms to log-uniform integer sizes in [lo, hi].

    Log-uniform matches the heavy-tailed size distributions reported
    for web-service caches: most objects near the small end, a long
    tail toward the cap.
    """
    if lo <= 0 or hi < lo:
        raise ValueError("need 0 < lo <= hi")
    log_lo, log_hi = np.log(lo), np.log(hi)
    sizes = np.exp(log_lo + u * (log_hi - log_lo))
    return np.clip(sizes.astype(np.int64), lo, hi)


class ZipfSampler:
    """Zipf(alpha) sampler over ranks ``0..num_keys-1`` via inverse CDF.

    Rank 0 is the most popular key.  Sampling is vectorized
    (``searchsorted`` over the precomputed CDF) and driven by a seeded
    generator for reproducibility.
    """

    def __init__(self, num_keys: int, alpha: float, seed: int = 42) -> None:
        if num_keys <= 0:
            raise ValueError("num_keys must be positive")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.num_keys = num_keys
        self.alpha = alpha
        ranks = np.arange(1, num_keys + 1, dtype=np.float64)
        weights = ranks ** (-alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        self._rng = np.random.default_rng(seed)

    def sample(self, n: int, keep: Optional[np.ndarray] = None) -> np.ndarray:
        """Draw ``n`` ranks (int64).

        With ``keep`` (a boolean mask over the ``n`` draws) the stream
        still advances by ``n``, but only the kept draws are inverted:
        the result is ``sample(n)[keep]`` for the cost of its length.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return np.empty(0, dtype=np.int64)
        u = self._rng.random(n)
        if keep is not None:
            u = u[keep]
        return np.searchsorted(self._cdf, u, side="left").astype(np.int64)

    def probability(self, rank: int) -> float:
        """P(rank) under the distribution (for tests)."""
        if not 0 <= rank < self.num_keys:
            raise ValueError("rank out of range")
        lo = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - lo)
