"""Kangaroo-style small-object cache: a log front over set buckets.

Kangaroo (SOSP '21) caches tiny objects with a two-level design: a
small log-structured buffer (KLog) absorbs incoming items, and when a
log segment is recycled its surviving items are *batch-moved* into a
set-associative array (KSet) — one bucket rewrite carries several
items, which slashes the per-item application-level write amplification
of a plain bucket store.  Items whose destination bucket would receive
fewer than a movement threshold are simply dropped (a miss later is
cheaper than a 4 KiB write now).

The paper positions its FDP work as *complementary* to Kangaroo
("we keep the cache architecture ... unchanged and leverage FDP
features for data placement"), so this engine exists to demonstrate
both claims at once: it plugs into the same placement-handle machinery
(two handles: log + sets), and the extension bench shows FDP holding
DLWA at ~1 for either small-object engine while Kangaroo additionally
reduces ALWA.

This is a faithful miniature, not a full Kangaroo: no partitioned
index tricks, and RRIP eviction is approximated by intra-bucket FIFO.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..core.device_layer import FdpAwareDevice
from ..core.placement import PlacementHandle
from ..faults.errors import MediaError
from .item import CacheItem
from .soc import SmallObjectCache

__all__ = ["KangarooCache"]


class KangarooCache:
    """Log-plus-sets small-object engine (KLog + KSet).

    Exposes the same engine interface as
    :class:`~repro.cache.soc.SmallObjectCache` (``insert`` / ``lookup``
    / ``delete`` / ``invalidate`` / ``contains`` / ``accepts``), so the
    hybrid cache can swap it in via configuration.

    Parameters
    ----------
    device, base_lba:
        I/O layer and the first LBA of the engine's flash slice.
    log_handle / set_handle:
        Placement handles for the two write streams.  Both are hot and
        small; the paper's static policy would give them separate RUHs
        (or share one — the bench explores both).
    num_log_pages:
        KLog size in pages (the log occupies the slice's head).
    num_buckets:
        KSet bucket count (one page per bucket after the log).
    move_threshold:
        Minimum staged items per destination bucket for a batch move;
        buckets with fewer pending items have them dropped, trading
        hit ratio for write reduction (Kangaroo's key knob).

    Every log flush writes a per-page header (and the embedded KSet its
    bucket headers) into the out-of-band area, so :meth:`recover` can
    warm-restart after a power cut.
    """

    def __init__(
        self,
        device: FdpAwareDevice,
        log_handle: PlacementHandle,
        set_handle: PlacementHandle,
        base_lba: int,
        num_log_pages: int,
        num_buckets: int,
        *,
        move_threshold: int = 2,
    ) -> None:
        if num_log_pages < 2:
            raise ValueError("KLog needs at least 2 pages")
        if move_threshold < 1:
            raise ValueError("move_threshold must be at least 1")
        self.device = device
        self.log_handle = log_handle
        self.base_lba = base_lba
        self.num_log_pages = num_log_pages
        self.move_threshold = move_threshold
        self.page_size = device.ssd.page_size
        self._flush_seq = 0

        self.sets = SmallObjectCache(
            device, set_handle, base_lba + num_log_pages, num_buckets
        )

        # KLog state: a ring of pages; each holds an item list.  The
        # in-memory index maps key -> log page for O(1) lookups (this
        # is the DRAM overhead Kangaroo keeps small via its partitioned
        # index; a plain dict stands in here).
        self._log_pages: List[List[CacheItem]] = [
            [] for _ in range(num_log_pages)
        ]
        self._log_index: Dict[int, int] = {}
        self._head = 0  # page currently being filled
        self._head_bytes = 0

        self.log_inserts = 0
        self.log_hits = 0
        self.moved_items = 0
        self.dropped_items = 0
        self.flash_writes = 0
        self.app_bytes_written = 0
        self.ssd_bytes_written = 0
        self.lookups = 0
        self.hits = 0
        self._log_flash_reads = 0
        # KLog-side media-failure counters (the KSet keeps its own in
        # the embedded SmallObjectCache; aggregates below sum both).
        self.log_read_errors = 0
        self.log_write_errors = 0
        self.log_write_drops = 0

    # ------------------------------------------------------------------
    # engine interface
    # ------------------------------------------------------------------

    def accepts(self, item: CacheItem) -> bool:
        """Items must fit a set bucket (the log page too, implied)."""
        return self.sets.accepts(item)

    def contains(self, key: int) -> bool:
        return key in self._log_index or self.sets.contains(key)

    def resident_items(self) -> Dict[int, int]:
        """key → logical size across the log and the backing sets."""
        out = self.sets.resident_items()
        for page, items in enumerate(self._log_pages):
            for item in items:
                if self._log_index.get(item.key) == page:
                    out[item.key] = item.size
        return out

    @property
    def item_count(self) -> int:
        return len(self._log_index) + self.sets.item_count

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    # Aliases so the hybrid cache's stats surface treats either
    # small-object engine uniformly.

    @property
    def inserts(self) -> int:
        return self.log_inserts

    @property
    def evictions(self) -> int:
        return self.dropped_items + self.sets.evictions

    @property
    def bloom_rejects(self) -> int:
        return self.sets.bloom_rejects

    @property
    def flash_reads(self) -> int:
        return self.sets.flash_reads + self._log_flash_reads

    @property
    def total_flash_writes(self) -> int:
        """Log page writes plus set bucket rewrites."""
        return self.flash_writes + self.sets.flash_writes

    @property
    def read_errors(self) -> int:
        return self.log_read_errors + self.sets.read_errors

    @property
    def write_errors(self) -> int:
        return self.log_write_errors + self.sets.write_errors

    @property
    def write_drops(self) -> int:
        return self.log_write_drops + self.sets.write_drops

    # ------------------------------------------------------------------
    # KLog mechanics
    # ------------------------------------------------------------------

    def _log_lba(self, page: int) -> int:
        return self.base_lba + page

    def _drop_log_page(self, page: int) -> int:
        """Discard a log page's staged items and unmap them from the
        index.  Returns the number of entries dropped."""
        dropped = 0
        for item in self._log_pages[page]:
            if self._log_index.get(item.key) == page:
                del self._log_index[item.key]
                dropped += 1
        self._log_pages[page] = []
        return dropped

    def _flush_head(self, now_ns: int) -> int:
        """Write the filled head page and advance the ring."""
        # Log-page header: flush sequence + staged-item manifest.  A
        # torn flush leaves no verifying header; recover() then treats
        # the page's items as lost, like a failed write.
        self._flush_seq += 1
        payload = (
            "klog",
            self._head,
            self._flush_seq,
            tuple(
                (item.key, item.size)
                for item in self._log_pages[self._head]
                if self._log_index.get(item.key) == self._head
            ),
        )
        try:
            done = self.device.write(
                self._log_lba(self._head), 1, self.log_handle, now_ns,
                worker="soc", payload=payload,
            )
        except MediaError:
            # The head page never reached flash: its staged items are
            # lost (misses later), the ring advances regardless.
            self.log_write_errors += 1
            self.log_write_drops += self._drop_log_page(self._head)
            done = now_ns
        else:
            self.flash_writes += 1
            self.ssd_bytes_written += self.page_size
        self._head = (self._head + 1) % self.num_log_pages
        self._head_bytes = 0
        if self._log_pages[self._head]:
            done = self._evict_log_page(self._head, done)
        return done

    def _evict_log_page(self, page: int, now_ns: int) -> int:
        """Recycle the oldest log page: batch-move or drop its items."""
        staged = self._log_pages[page]
        self._log_pages[page] = []
        by_bucket: "OrderedDict[int, List[CacheItem]]" = OrderedDict()
        # Newest-first so a key duplicated within the page keeps its
        # latest value; older duplicates then fail the index check.
        for item in reversed(staged):
            if self._log_index.get(item.key) != page:
                continue  # superseded by a newer log entry
            del self._log_index[item.key]
            by_bucket.setdefault(self.sets.bucket_of(item.key), []).append(
                item
            )
        movers: List[List[CacheItem]] = []
        for bucket_items in by_bucket.values():
            if len(bucket_items) >= self.move_threshold:
                movers.append(bucket_items)
            else:
                self.dropped_items += len(bucket_items)
        if not movers:
            return now_ns
        # One batched submission for every destination bucket: the set
        # rewrites land as a single device.submit_batch call instead of
        # a per-bucket loop.  Dropping a below-threshold bucket has no
        # I/O or timing effect, so hoisting the drops above the moves
        # leaves every counter and completion time identical to the
        # interleaved per-bucket order.
        admitted, done = self.sets.insert_many_batched(movers, now_ns)
        self.moved_items += admitted
        return done

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def insert(self, item: CacheItem, now_ns: int = 0) -> Tuple[bool, int]:
        """Append an item to the KLog."""
        if not self.accepts(item):
            return False, now_ns
        done = now_ns
        if self._head_bytes + item.stored_size > self.page_size:
            done = self._flush_head(now_ns)
        self._log_pages[self._head].append(item)
        self._log_index[item.key] = self._head
        self._head_bytes += item.stored_size
        self.log_inserts += 1
        self.app_bytes_written += item.size
        return True, done

    def lookup(
        self, key: int, now_ns: int = 0
    ) -> Tuple[Optional[CacheItem], int]:
        """Check the log (one page read unless still buffered), then
        the sets."""
        self.lookups += 1
        page = self._log_index.get(key)
        if page is not None:
            done = now_ns
            if page != self._head:
                try:
                    mapped, done = self.device.read(
                        self._log_lba(page), 1, now_ns, worker="soc"
                    )
                except MediaError:
                    # Log page unreadable: every key staged on it is
                    # gone; fall through to the sets for this key.
                    self.log_read_errors += 1
                    self._drop_log_page(page)
                    item, done = self.sets.lookup(key, now_ns)
                    if item is not None:
                        self.hits += 1
                    return item, done
                if not mapped:
                    # CRC verification poisoned the log page — same
                    # degradation as the UECC path above.
                    self.log_read_errors += 1
                    self._drop_log_page(page)
                    item, done = self.sets.lookup(key, now_ns)
                    if item is not None:
                        self.hits += 1
                    return item, done
                self._log_flash_reads += 1
            # Scan newest-first: a page may hold superseded duplicates
            # of a key appended within the same fill window.
            for item in reversed(self._log_pages[page]):
                if item.key == key:
                    self.log_hits += 1
                    self.hits += 1
                    return item, done
        item, done = self.sets.lookup(key, now_ns)
        if item is not None:
            self.hits += 1
        return item, done

    def invalidate(self, key: int) -> bool:
        """Drop a key without I/O (mutation superseded the copy)."""
        page = self._log_index.pop(key, None)
        hit = page is not None
        if hit:
            self._log_pages[page] = [
                item for item in self._log_pages[page] if item.key != key
            ]
        return self.sets.invalidate(key) or hit

    def delete(self, key: int, now_ns: int = 0) -> Tuple[bool, int]:
        """Remove a key; a set-resident key costs a bucket rewrite."""
        if self.invalidate_log_only(key):
            return True, now_ns
        return self.sets.delete(key, now_ns)

    def invalidate_log_only(self, key: int) -> bool:
        """Internal: drop a log-resident copy (no flash write needed —
        the log page stays valid until the ring wraps)."""
        page = self._log_index.pop(key, None)
        if page is None:
            return False
        self._log_pages[page] = [
            item for item in self._log_pages[page] if item.key != key
        ]
        return True

    # ------------------------------------------------------------------
    # warm restart
    # ------------------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Rebuild KLog staging and the KSet from flash headers.

        Call after the device's power-on recovery.  Flushed log pages
        with verifying headers come back with their staged items (a key
        on several pages resolves to the newest flush); the DRAM-
        buffered head page is always lost, and the ring resumes right
        after the newest durable flush.  The embedded KSet recovers its
        buckets through :meth:`SmallObjectCache.recover`.
        """
        self._log_index.clear()
        for page in range(self.num_log_pages):
            self._log_pages[page] = []

        flushed = []  # (flush_seq, page, manifest)
        log_lost = 0
        for page in range(self.num_log_pages):
            payload = self.device.read_payload(self._log_lba(page), 1)[0]
            valid = (
                isinstance(payload, tuple)
                and len(payload) == 4
                and payload[0] == "klog"
                and payload[1] == page
            )
            if valid:
                flushed.append((payload[2], page, payload[3]))
            elif payload is not None:
                log_lost += 1
        flushed.sort()
        log_items = 0
        for seq, page, manifest in flushed:
            for key, size in manifest:
                stale = self._log_index.get(key)
                if stale is not None:
                    self._log_pages[stale] = [
                        it for it in self._log_pages[stale] if it.key != key
                    ]
                self._log_pages[page].append(CacheItem(key, size))
                self._log_index[key] = page
                log_items += 1
        self._flush_seq = flushed[-1][0] if flushed else 0

        # Resume the ring after the newest durable flush.  The slot the
        # head lands on is about to be refilled, so its previous-trip
        # items (if any were recovered) are dropped now rather than
        # mixed with fresh inserts.
        if flushed:
            self._head = (flushed[-1][1] + 1) % self.num_log_pages
        else:
            self._head = 0
        self._head_bytes = 0
        if self._log_pages[self._head]:
            self._drop_log_page(self._head)

        set_report = self.sets.recover()
        return {
            "log_pages_recovered": len(flushed),
            "log_pages_lost": log_lost,
            "log_items_recovered": len(self._log_index),
            "items_recovered": len(self._log_index)
            + set_report["items_recovered"],
            "buckets_recovered": set_report["buckets_recovered"],
            "buckets_dropped": set_report["buckets_dropped"],
        }
