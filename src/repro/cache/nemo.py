"""Nemo-style tiny-object engine: a log-structured store with a
set-associative DRAM index.

Nemo (see PAPERS.md) attacks small-object write amplification from the
opposite direction to Kangaroo: instead of a log *front* that
batch-moves survivors into on-flash set buckets, the log *is* the
store.  Items are only ever appended — one page write per filled page,
never a read-modify-write — and a bounded set-associative index in DRAM
maps keys to log pages.  Reclaim is FIFO over coarse regions at the
ring's tail: when the write frontier re-enters a region, items still
indexed there are either dropped (cold) or re-appended (hot, capped by
a reinsertion budget), so the only application-level write
amplification the engine produces is that explicit, metered
reinsertion stream.

The trade against Kangaroo/set-associative SOC:

* deletes and overwrites are free (index drop; the flash copy becomes
  unreachable garbage until its region recycles) where a bucket store
  pays a page rewrite;
* lookups of absent keys are free (the DRAM index answers) where the
  plain SOC pays a bloom-filter check and sometimes a flash read;
* the cost is DRAM (a bounded index entry per cached item) and index-
  eviction misses when a set's ways overflow — exactly Nemo's
  DRAM-for-WA trade.

The engine exposes the same interface as
:class:`~repro.cache.soc.SmallObjectCache` /
:class:`~repro.cache.kangaroo.KangarooCache` and takes a single
placement handle, so FDP placement, the scheduler overlay, and the
integrity ladder apply to it unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from ..core.device_layer import FdpAwareDevice
from ..core.placement import PlacementHandle
from ..faults.errors import MediaError
from .bloom import splitmix64
from .item import CacheItem

__all__ = ["NemoCache", "NEMO_PAGE_HEADER_BYTES"]

# Per-page header persisted with each flushed log page (sequence,
# checksum, item count) — the self-describing metadata recover() reads.
NEMO_PAGE_HEADER_BYTES = 16


class NemoCache:
    """Log-structured small-object engine with FIFO region reclaim.

    Parameters
    ----------
    device, handle, base_lba:
        I/O layer, the engine's placement handle (one append-only
        write stream — ideal RUH material), and the first LBA of its
        flash slice.
    num_pages:
        Slice size in pages; the log is a ring over all of them.
    region_pages:
        Reclaim granularity.  The frontier entering a region reclaims
        the whole region first, so larger regions mean rarer, larger
        reclaims (clamped to the slice size).
    index_ways:
        Associativity of the DRAM index.  Inserting into a full set
        silently unmaps the set's oldest key (an *index eviction*):
        bounded DRAM is the contract, occasional early misses are the
        price.
    reinsert_fraction:
        Cap on reinsertion WA: at most this fraction of a reclaimed
        region's bytes may be re-appended for items that were accessed
        since insertion.  ``0`` is pure FIFO (drop everything).

    Every page flush writes its manifest into the out-of-band area, so
    :meth:`recover` can warm-restart after a power cut.
    """

    def __init__(
        self,
        device: FdpAwareDevice,
        handle: PlacementHandle,
        base_lba: int,
        num_pages: int,
        *,
        region_pages: int = 8,
        index_ways: int = 8,
        reinsert_fraction: float = 0.25,
    ) -> None:
        if num_pages < 2:
            raise ValueError("NemoCache needs at least 2 pages")
        if region_pages < 1:
            raise ValueError("region_pages must be >= 1")
        if index_ways < 1:
            raise ValueError("index_ways must be >= 1")
        if not 0.0 <= reinsert_fraction <= 1.0:
            raise ValueError("reinsert_fraction must be in [0, 1]")
        self.device = device
        self.handle = handle
        self.base_lba = base_lba
        self.num_pages = num_pages
        self.region_pages = min(region_pages, num_pages)
        self.index_ways = index_ways
        self.reinsert_fraction = reinsert_fraction
        self.page_size = device.ssd.page_size
        self.usable_page_bytes = self.page_size - NEMO_PAGE_HEADER_BYTES

        # Set-associative index: key -> [page, size, hot].  Two sets
        # per log page keeps expected occupancy below ``index_ways``
        # for typical tiny-object mixes while bounding DRAM.
        self.num_sets = max(1, num_pages * 2)
        self._sets: List["OrderedDict[int, list]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self._page_items: List[List[CacheItem]] = [
            [] for _ in range(num_pages)
        ]
        self._head = 0
        self._head_bytes = 0
        self._flush_seq = 0

        self.inserts = 0
        self.reinserted_items = 0
        self.reinsert_bytes = 0
        self.dropped_items = 0
        self.index_evictions = 0
        self.lookups = 0
        self.hits = 0
        self.flash_reads = 0
        self.flash_writes = 0
        self.app_bytes_written = 0
        self.ssd_bytes_written = 0
        self.regions_reclaimed = 0
        self.read_errors = 0
        self.write_errors = 0
        self.write_drops = 0

    # ------------------------------------------------------------------
    # index helpers
    # ------------------------------------------------------------------

    def _set_of(self, key: int) -> int:
        return splitmix64(key) % self.num_sets

    def _entry(self, key: int) -> Optional[list]:
        return self._sets[self._set_of(key)].get(key)

    def _index_put(self, key: int, page: int, size: int) -> None:
        entries = self._sets[self._set_of(key)]
        old = entries.pop(key, None)
        if old is None and len(entries) >= self.index_ways:
            # Full set: the oldest way is unmapped; its flash copy is
            # unreachable garbage until the region recycles.
            entries.popitem(last=False)
            self.index_evictions += 1
        entries[key] = [page, size, False]

    def _index_drop(self, key: int) -> Optional[list]:
        return self._sets[self._set_of(key)].pop(key, None)

    # ------------------------------------------------------------------
    # engine interface
    # ------------------------------------------------------------------

    def accepts(self, item: CacheItem) -> bool:
        """Whether the item physically fits in a log page."""
        return item.stored_size <= self.usable_page_bytes

    def contains(self, key: int) -> bool:
        return self._entry(key) is not None

    def resident_items(self) -> Dict[int, int]:
        """key → logical size of everything the index can reach."""
        out: Dict[int, int] = {}
        for entries in self._sets:
            for key, (page, size, _hot) in entries.items():
                out[key] = size
        return out

    @property
    def item_count(self) -> int:
        return sum(len(entries) for entries in self._sets)

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def evictions(self) -> int:
        """Items lost without a host delete (reclaim drops + index
        evictions), the alias the hybrid stats surface sums."""
        return self.dropped_items + self.index_evictions

    @property
    def bloom_rejects(self) -> int:
        """No bloom filters: the DRAM index answers absent keys."""
        return 0

    # ------------------------------------------------------------------
    # log mechanics
    # ------------------------------------------------------------------

    def _lba(self, page: int) -> int:
        return self.base_lba + page

    def _drop_page(self, page: int) -> int:
        """Unmap every key whose index entry points at ``page``."""
        dropped = 0
        for item in self._page_items[page]:
            entry = self._entry(item.key)
            if entry is not None and entry[0] == page:
                self._index_drop(item.key)
                dropped += 1
        self._page_items[page] = []
        return dropped

    def _flush_head(self, now_ns: int) -> int:
        """Write the filled head page, advance, reclaim on region
        boundaries."""
        self._flush_seq += 1
        manifest = []
        seen = set()
        # Newest-first so a key re-appended within the same fill window
        # persists its latest size.
        for item in reversed(self._page_items[self._head]):
            if item.key in seen:
                continue
            entry = self._entry(item.key)
            if entry is not None and entry[0] == self._head:
                seen.add(item.key)
                manifest.append((item.key, item.size))
        payload = ("nemo", self._head, self._flush_seq, tuple(manifest))
        try:
            done = self.device.write(
                self._lba(self._head), 1, self.handle, now_ns,
                worker="soc", payload=payload,
            )
        except MediaError:
            # The page never reached flash: its items are lost (misses
            # later); the ring advances regardless.
            self.write_errors += 1
            self.write_drops += self._drop_page(self._head)
            done = now_ns
        else:
            self.flash_writes += 1
            self.ssd_bytes_written += self.page_size
        self._head = (self._head + 1) % self.num_pages
        self._head_bytes = 0
        if self._head % self.region_pages == 0:
            done = self._reclaim_region(self._head, done)
        elif self._page_items[self._head]:
            # Misaligned tail region (slice size not a multiple of the
            # region size): recycle page-at-a-time.
            self.dropped_items += self._drop_page(self._head)
        return done

    def _reclaim_region(self, start: int, now_ns: int) -> int:
        """FIFO-reclaim the region the frontier is entering.

        Survivors (keys still indexed on the region's pages) are
        partitioned by the hot bit: accessed-since-insert items may be
        re-appended up to the reinsertion byte budget, everything else
        is dropped.  Reinserted items land at the frontier — inside
        this freshly cleared region — so reclaim never cascades.
        """
        self.regions_reclaimed += 1
        end = min(start + self.region_pages, self.num_pages)
        survivors: List[Tuple[CacheItem, bool]] = []
        for page in range(start, end):
            for item in reversed(self._page_items[page]):
                entry = self._entry(item.key)
                if entry is not None and entry[0] == page:
                    self._index_drop(item.key)
                    survivors.append((item, bool(entry[2])))
            self._page_items[page] = []
        budget = int(
            (end - start) * self.usable_page_bytes * self.reinsert_fraction
        )
        done = now_ns
        for item, hot in survivors:
            if hot and item.stored_size <= budget:
                budget -= item.stored_size
                done = self._append(item, done)
                self.reinserted_items += 1
                self.reinsert_bytes += item.size
            else:
                self.dropped_items += 1
        return done

    def _append(self, item: CacheItem, now_ns: int) -> int:
        """Stage an item at the frontier (shared by insert + reclaim)."""
        done = now_ns
        if self._head_bytes + item.stored_size > self.usable_page_bytes:
            done = self._flush_head(now_ns)
        self._page_items[self._head].append(item)
        self._index_put(item.key, self._head, item.size)
        self._head_bytes += item.stored_size
        return done

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def insert(self, item: CacheItem, now_ns: int = 0) -> Tuple[bool, int]:
        """Append an item to the log."""
        if not self.accepts(item):
            return False, now_ns
        done = self._append(item, now_ns)
        self.inserts += 1
        self.app_bytes_written += item.size
        return True, done

    def lookup(
        self, key: int, now_ns: int = 0
    ) -> Tuple[Optional[CacheItem], int]:
        """Index-guided lookup: absent keys cost no I/O; resident keys
        cost one page read unless still buffered at the frontier."""
        self.lookups += 1
        entry = self._entry(key)
        if entry is None:
            return None, now_ns
        page, size, _hot = entry
        done = now_ns
        if page != self._head:
            try:
                mapped, done = self.device.read(
                    self._lba(page), 1, now_ns, worker="soc"
                )
            except MediaError:
                # Unreadable page: every key indexed on it degrades to
                # a miss — never an exception to the caller.
                self.read_errors += 1
                self._drop_page(page)
                return None, now_ns
            if not mapped:
                # CRC verification poisoned the page — same
                # degradation as the UECC path above.
                self.read_errors += 1
                self._drop_page(page)
                return None, done
            self.flash_reads += 1
        entry[2] = True  # hot: earned reclaim-time reinsertion
        self.hits += 1
        return tuple.__new__(CacheItem, (key, size)), done

    def invalidate(self, key: int) -> bool:
        """Drop a key without I/O (log-structured: the flash copy is
        simply abandoned to the next reclaim)."""
        return self._index_drop(key) is not None

    def delete(self, key: int, now_ns: int = 0) -> Tuple[bool, int]:
        """Remove a key; free, unlike a bucket store's page rewrite."""
        return self.invalidate(key), now_ns

    # ------------------------------------------------------------------
    # warm restart
    # ------------------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Rebuild the index from per-page manifests after a power cut.

        Flushed pages with verifying headers come back (a key on
        several pages resolves to the newest flush); the DRAM-buffered
        frontier page is always lost.  The ring resumes right after the
        newest durable flush.
        """
        for entries in self._sets:
            entries.clear()
        for page in range(self.num_pages):
            self._page_items[page] = []

        flushed = []  # (flush_seq, page, manifest)
        pages_lost = 0
        for page in range(self.num_pages):
            payload = self.device.read_payload(self._lba(page), 1)[0]
            valid = (
                isinstance(payload, tuple)
                and len(payload) == 4
                and payload[0] == "nemo"
                and payload[1] == page
            )
            if valid:
                flushed.append((payload[2], page, payload[3]))
            elif payload is not None:
                pages_lost += 1
        flushed.sort()
        for seq, page, manifest in flushed:
            for key, size in manifest:
                stale = self._entry(key)
                if stale is not None:
                    self._page_items[stale[0]] = [
                        it
                        for it in self._page_items[stale[0]]
                        if it.key != key
                    ]
                item = CacheItem(key, size)
                self._page_items[page].append(item)
                self._index_put(key, page, size)
        self._flush_seq = flushed[-1][0] if flushed else 0

        if flushed:
            self._head = (flushed[-1][1] + 1) % self.num_pages
        else:
            self._head = 0
        self._head_bytes = 0
        if self._page_items[self._head]:
            # The resume slot is about to be refilled; its previous-
            # trip items are dropped now, not mixed with fresh inserts.
            self._drop_page(self._head)

        return {
            "pages_recovered": len(flushed),
            "pages_lost": pages_lost,
            "items_recovered": self.item_count,
        }
