"""DRAM cache layer: a byte-budgeted LRU.

CacheLib's RAM cache holds the most popular items; evictions flow down
to the flash layer (which is what makes flash caching write-intensive —
Section 2.3).  The reproduction keeps keys+sizes in an ordered dict and
reports evicted items to the caller so the hybrid cache can run them
through the admission policy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from .item import CacheItem

__all__ = ["DramCache", "DRAM_ITEM_OVERHEAD"]

# Per-item DRAM metadata overhead (pointers, refcounts, LRU links);
# CacheLib reports ~31 bytes per item plus allocator slack.
DRAM_ITEM_OVERHEAD = 31


class DramCache:
    """LRU cache over item metadata with a byte capacity.

    Items larger than the whole budget are rejected by :meth:`set`
    (returned as an immediate eviction) rather than thrashing the LRU.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._items: "OrderedDict[int, int]" = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: int) -> bool:
        return key in self._items

    @staticmethod
    def _charged(size: int) -> int:
        return size + DRAM_ITEM_OVERHEAD

    def get(self, key: int) -> Optional[CacheItem]:
        """Look up and promote; returns the item or ``None``."""
        size = self._items.get(key)
        if size is None:
            self.misses += 1
            return None
        self._items.move_to_end(key)
        self.hits += 1
        return CacheItem(key, size)

    def peek(self, key: int) -> Optional[CacheItem]:
        """Look up without promoting or counting a hit/miss."""
        size = self._items.get(key)
        return None if size is None else CacheItem(key, size)

    def resident_items(self) -> dict:
        """key → size snapshot (non-mutating; no LRU effects)."""
        return dict(self._items)

    def set(self, item: CacheItem) -> List[CacheItem]:
        """Insert/overwrite; returns the items evicted to make room."""
        charged = self._charged(item.size)
        # An overwrite supersedes the resident copy whether or not the
        # new version fits.
        old = self._items.pop(item.key, None)
        if old is not None:
            self.used_bytes -= self._charged(old)
        if charged > self.capacity_bytes:
            # Too big for DRAM entirely: flows straight to flash.
            self.evictions += 1
            return [item]
        self._items[item.key] = item.size
        self.used_bytes += charged
        evicted: List[CacheItem] = []
        while self.used_bytes > self.capacity_bytes:
            victim_key, victim_size = self._items.popitem(last=False)
            self.used_bytes -= self._charged(victim_size)
            self.evictions += 1
            evicted.append(CacheItem(victim_key, victim_size))
        return evicted

    def delete(self, key: int) -> bool:
        """Remove a key; returns whether it was present."""
        size = self._items.pop(key, None)
        if size is None:
            return False
        self.used_bytes -= self._charged(size)
        return True

    @property
    def hit_ratio(self) -> float:
        """DRAM hit ratio over the cache's lifetime."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
