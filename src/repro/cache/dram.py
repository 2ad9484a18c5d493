"""DRAM cache layer: a byte-budgeted LRU.

CacheLib's RAM cache holds the most popular items; evictions flow down
to the flash layer (which is what makes flash caching write-intensive —
Section 2.3).  The reproduction keeps the (immutable) items it is given
in an ordered dict, hands the same objects back on a hit, and reports
evicted items to the caller so the hybrid cache can run them through
the admission policy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence

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
        self._items: "OrderedDict[int, CacheItem]" = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: int) -> bool:
        return key in self._items

    def get(self, key: int) -> Optional[CacheItem]:
        """Look up and promote; returns the item or ``None``."""
        item = self._items.get(key)
        if item is None:
            self.misses += 1
            return None
        self._items.move_to_end(key)
        self.hits += 1
        return item

    def peek(self, key: int) -> Optional[CacheItem]:
        """Look up without promoting or counting a hit/miss."""
        return self._items.get(key)

    def resident_items(self) -> Dict[int, int]:
        """key → size snapshot (non-mutating; no LRU effects)."""
        return {key: item.size for key, item in self._items.items()}

    def set(self, item: CacheItem) -> Sequence[CacheItem]:
        """Insert/overwrite; returns the items evicted to make room."""
        items = self._items
        charged = item.size + DRAM_ITEM_OVERHEAD
        # An overwrite supersedes the resident copy whether or not the
        # new version fits.
        old = items.pop(item.key, None)
        if old is not None:
            self.used_bytes -= old.size + DRAM_ITEM_OVERHEAD
        if charged > self.capacity_bytes:
            # Too big for DRAM entirely: flows straight to flash.
            self.evictions += 1
            return [item]
        items[item.key] = item
        self.used_bytes += charged
        if self.used_bytes <= self.capacity_bytes:
            return ()
        evicted: List[CacheItem] = []
        while self.used_bytes > self.capacity_bytes:
            victim = items.popitem(last=False)[1]
            self.used_bytes -= victim.size + DRAM_ITEM_OVERHEAD
            self.evictions += 1
            evicted.append(victim)
        return evicted

    def delete(self, key: int) -> bool:
        """Remove a key; returns whether it was present."""
        item = self._items.pop(key, None)
        if item is None:
            return False
        self.used_bytes -= item.size + DRAM_ITEM_OVERHEAD
        return True

    @property
    def hit_ratio(self) -> float:
        """DRAM hit ratio over the cache's lifetime."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
