"""Small per-bucket bloom filters for the SOC.

CacheLib keeps a tiny bloom filter per SOC bucket in DRAM so that
lookups of absent keys do not pay a flash read.  The reproduction keeps
the same structure: a fixed-width bit array per bucket, answering for
the bucket's last rewrite.  The SOC rebuilds it from that rewrite's
manifest at the first lookup after the rewrite (cheap — buckets hold
tens of items), so a rewrite that no lookup reads builds nothing.

Hashing uses ``splitmix64`` over the integer key with per-probe seeds;
it is deterministic across runs, which the experiments rely on.

A key's probe positions fold into one int, its *mask* (looked up in a
table per filter shape): ``add`` ORs it in, ``may_contain`` is
``field & mask == mask``, ``rebuild`` an OR-reduce.  The SOC memoizes
the masks of resident keys and hands them to ``may_contain`` and
``rebuild``, which then skip the hashing.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, Optional, Tuple

__all__ = ["BloomFilter", "bloom_mask", "probe_table", "splitmix64"]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (deterministic, well spread)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def bloom_mask(h1: int, bits: int, hashes: int) -> int:
    """The bits a key sets in a ``bits``-wide filter, as one int:
    probe ``i`` sits at ``(h1 + i * h2) % bits``, with ``h1`` being
    ``splitmix64(key)`` (which also places the key in the SOC) and
    ``h2`` a second round forced odd (double hashing).  That depends on
    ``h1 % bits`` and ``h2 % bits`` only, so the mask is looked up in
    :func:`probe_table` (the SOC binds its one shape's table once)."""
    h2 = splitmix64(h1) | 1
    return probe_table(bits, hashes)[h1 % bits * bits + h2 % bits]


@lru_cache(maxsize=16)
def probe_table(bits: int, hashes: int) -> Tuple[int, ...]:
    """Every mask of a filter shape, at ``r1 * bits + r2`` for the
    residues of ``h1`` and ``h2``: ``r1 = 0``'s masks rotated by ``r1``."""
    row = [reduce(or_, [1 << i * r2 % bits for i in range(hashes)]) for r2 in range(bits)]
    full = (1 << bits) - 1
    return tuple((m << r1 | m >> bits - r1) & full for r1 in range(bits) for m in row)


class BloomFilter:
    """Fixed-size bloom filter over integer keys.

    Parameters
    ----------
    bits:
        Filter width; CacheLib-style per-bucket filters are small
        (default 64 bits ~ 8 bytes per bucket).
    hashes:
        Number of probe positions per key.
    """

    __slots__ = ("bits", "hashes", "_field")

    def __init__(self, bits: int = 64, hashes: int = 4) -> None:
        if bits <= 0:
            raise ValueError("bits must be positive")
        if hashes <= 0:
            raise ValueError("hashes must be positive")
        self.bits = bits
        self.hashes = hashes
        self._field = 0

    def mask(self, key: int) -> int:
        """The key's probe positions in this filter (see :func:`bloom_mask`)."""
        return bloom_mask(splitmix64(key), self.bits, self.hashes)

    def add(self, key: int) -> None:
        """Insert a key (no false negatives afterwards)."""
        self._field |= self.mask(key)

    def may_contain(self, key: int, mask: Optional[int] = None) -> bool:
        """True if the key *may* be present; False means definitely not."""
        if mask is None:
            mask = self.mask(key)
        return self._field & mask == mask

    def clear(self) -> None:
        """Reset to empty."""
        self._field = 0

    def rebuild(
        self,
        keys: Iterable[int],
        mask_of: Optional[Callable[[int], int]] = None,
    ) -> None:
        """Clear and re-add ``keys`` (a bucket's first lookup after its
        rewrite); ``mask_of`` maps a key to its mask for a caller that
        holds them."""
        self._field = reduce(or_, map(mask_of or self.mask, keys), 0)
