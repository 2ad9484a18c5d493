"""Large Object Cache (LOC): log-structured region cache.

Mirrors CacheLib's LOC (Section 2.3):

* The LOC's flash space is divided into fixed-size *regions* (16 MiB or
  256 MiB in production; scaled down here).  Inserts append into an
  in-memory open region; when it fills, the region is flushed to flash
  as one long sequential write — the "SSD-friendly" pattern that needs
  no overprovisioning (Insight 2).
* Eviction is region-granular FIFO: the oldest region's keys leave the
  in-memory index and the region is recycled, its LBAs overwritten
  sequentially — invalidating the old data in the FTL without GC help.
* A DRAM index maps key → region (this is the LOC's DRAM overhead the
  paper contrasts against the SOC's near-zero tracking cost).
* *Warm restart* (CacheLib persists its region index across planned
  shutdowns; crash recovery here goes further): each region flush
  carries a sealed-region header — region id, monotonically increasing
  seal sequence, and the key manifest — in the device's out-of-band
  metadata.  :meth:`LargeObjectCache.recover` re-reads those headers
  after a power cut, keeps every region whose pages all carry the same
  complete header (a torn flush fails this check), rebuilds the DRAM
  index from the manifests in seal order, and recycles everything
  else.  The open region's buffered items were DRAM-only and are
  always lost — exactly CacheLib's crash semantics for unflushed
  regions.

An optional *RU-size-aware eviction* mode implements the paper's
"lesson learned 1": when recycling, evict enough adjacent regions to
cover one reclaim unit and TRIM them together, hinting the device that
the whole RU is dead.  The paper found minimal gains; the ablation
bench reproduces that comparison.
"""

from __future__ import annotations

import collections
from typing import Deque, Dict, List, Optional, Tuple

from ..core.device_layer import FdpAwareDevice
from ..core.placement import PlacementHandle
from ..faults.errors import MediaError
from .item import CacheItem

__all__ = ["LargeObjectCache", "Region"]


class Region:
    """One LOC region: a contiguous page-aligned slice of the LOC space."""

    __slots__ = ("region_id", "keys", "used_bytes", "sealed")

    def __init__(self, region_id: int) -> None:
        self.region_id = region_id
        self.keys: List[int] = []
        self.used_bytes = 0
        self.sealed = False

    def reset(self) -> None:
        self.keys.clear()
        self.used_bytes = 0
        self.sealed = False


class LargeObjectCache:
    """Log-structured region cache over a contiguous LBA range.

    Parameters
    ----------
    device, handle, base_lba:
        As for the SOC: the I/O layer, the placement handle tagging LOC
        writes, and the first LBA of the LOC slice.
    num_regions / region_pages:
        The LOC owns ``num_regions * region_pages`` pages.
    ru_aware_trim:
        Enable lesson-1 behaviour: TRIM recycled regions so fully dead
        reclaim units are released without GC.

    Every flush writes its sealed-region header into the out-of-band
    area, so :meth:`recover` can warm-restart after a power cut.
    """

    def __init__(
        self,
        device: FdpAwareDevice,
        handle: PlacementHandle,
        base_lba: int,
        num_regions: int,
        region_pages: int,
        *,
        ru_aware_trim: bool = False,
    ) -> None:
        if num_regions < 2:
            raise ValueError("LOC needs at least 2 regions (1 open + 1 sealed)")
        if region_pages <= 0:
            raise ValueError("region_pages must be positive")
        self.device = device
        self.handle = handle
        self.base_lba = base_lba
        self.num_regions = num_regions
        self.region_pages = region_pages
        self.region_bytes = region_pages * device.ssd.page_size
        self.ru_aware_trim = ru_aware_trim
        self._seal_seq = 0

        self.regions = [Region(i) for i in range(num_regions)]
        self._clean: Deque[int] = collections.deque(range(1, num_regions))
        self._sealed: Deque[int] = collections.deque()
        self._open: Region = self.regions[0]
        self.index: Dict[int, Tuple[int, int]] = {}  # key -> (region, size)

        self.inserts = 0
        self.lookups = 0
        self.hits = 0
        self.evicted_items = 0
        self.evicted_regions = 0
        self.flash_reads = 0
        self.flash_writes = 0
        self.app_bytes_written = 0
        self.ssd_bytes_written = 0
        # Media-failure degradation counters: a failed region flush
        # drops the region, an unreadable region serves misses.
        self.read_errors = 0
        self.write_errors = 0
        self.write_drops = 0

    # ------------------------------------------------------------------

    def _region_lba(self, region_id: int) -> int:
        return self.base_lba + region_id * self.region_pages

    def accepts(self, item: CacheItem) -> bool:
        """Whether the item fits a region at all."""
        return item.stored_size <= self.region_bytes

    def contains(self, key: int) -> bool:
        """Ground-truth membership (no I/O charged)."""
        return key in self.index

    def resident_items(self) -> Dict[int, int]:
        """key → logical size snapshot of the index (no I/O)."""
        return {key: size for key, (_rid, size) in self.index.items()}

    # ------------------------------------------------------------------

    def _flush_open(self, now_ns: int) -> int:
        """Seal the open region and write it to flash sequentially.

        The flush is *asynchronous* (CacheLib's region flusher runs in
        the background): the write occupies the device timeline — so it
        interferes with subsequent reads, which is the p99 effect the
        paper measures — but the caller is not blocked on it, hence the
        returned completion time is ``now_ns``.

        The whole region goes down as one multi-page write command, so
        it rides the FTL's batched extent path (DESIGN.md §10): one
        placement lookup and journal run per reclaim-unit-sized chunk
        instead of per page.
        """
        region = self._open
        page_size = self.device.ssd.page_size
        # Regions are written whole (CacheLib's flusher writes the
        # fixed-size region buffer).  Writing only the used pages would
        # leave stale tail pages from the previous trip around the
        # region ring mapped forever — zombie valid pages the device
        # would keep migrating.
        pages = self.region_pages if region.used_bytes else 0
        if pages:
            # Sealed-region header: the key manifest travels in the OOB
            # area of every page of the flush command.  A torn flush
            # leaves pages without (or with partial) headers, which
            # recover() detects and discards.
            self._seal_seq += 1
            manifest = {}
            for key in region.keys:
                entry = self.index.get(key)
                if entry is not None and entry[0] == region.region_id:
                    manifest[key] = entry[1]
            payload = (
                "loc",
                region.region_id,
                self._seal_seq,
                region.used_bytes,
                tuple(manifest.items()),
            )
            try:
                self.device.write(
                    self._region_lba(region.region_id),
                    pages,
                    self.handle,
                    now_ns,
                    worker="loc",
                    payload=payload,
                )
            except MediaError:
                # The region buffer never made it to flash.  Drop its
                # keys (they were evictions-in-flight, not durable data)
                # and put the region straight back on the clean list.
                self.write_errors += 1
                for key in region.keys:
                    entry = self.index.get(key)
                    if entry is not None and entry[0] == region.region_id:
                        del self.index[key]
                        self.write_drops += 1
                region.reset()
                self._clean.append(region.region_id)
                return now_ns
            self.flash_writes += pages
            self.ssd_bytes_written += pages * page_size
        region.sealed = True
        self._sealed.append(region.region_id)
        return now_ns

    def _evict_one_region(self) -> None:
        """Recycle the oldest sealed region (FIFO)."""
        if not self._sealed:
            raise RuntimeError("no sealed region to evict")
        victim_id = self._sealed.popleft()
        victim = self.regions[victim_id]
        for key in victim.keys:
            entry = self.index.get(key)
            if entry is not None and entry[0] == victim_id:
                del self.index[key]
                self.evicted_items += 1
        if self.ru_aware_trim:
            # Lesson 1: hint the device the whole region is dead so the
            # containing reclaim unit can free itself without GC.
            self.device.deallocate(
                self._region_lba(victim_id), self.region_pages
            )
        victim.reset()
        self._clean.append(victim_id)
        self.evicted_regions += 1

    def _next_open(self, now_ns: int) -> None:
        if not self._clean:
            self._evict_one_region()
        self._open = self.regions[self._clean.popleft()]
        self._open.reset()

    def insert(self, item: CacheItem, now_ns: int = 0) -> Tuple[bool, int]:
        """Append an item to the log; returns ``(admitted, completion_ns)``."""
        if not self.accepts(item):
            return False, now_ns
        done = now_ns
        if self._open.used_bytes + item.stored_size > self.region_bytes:
            done = self._flush_open(now_ns)
            self._next_open(now_ns)
        region = self._open
        region.keys.append(item.key)
        region.used_bytes += item.stored_size
        self.index[item.key] = (region.region_id, item.size)
        self.inserts += 1
        self.app_bytes_written += item.size
        return True, done

    def lookup(self, key: int, now_ns: int = 0) -> Tuple[Optional[CacheItem], int]:
        """Look up a key; charges a page read on index hit."""
        self.lookups += 1
        entry = self.index.get(key)
        if entry is None:
            return None, now_ns
        region_id, size = entry
        region = self.regions[region_id]
        if region is self._open and not region.sealed:
            # Item still buffered in DRAM; no flash read needed.
            self.hits += 1
            return tuple.__new__(CacheItem, (key, size)), now_ns
        pages = max(1, -(-size // self.device.ssd.page_size))
        try:
            mapped, done = self.device.read(
                self._region_lba(region_id), pages, now_ns, worker="loc"
            )
        except MediaError:
            # The item's pages are unreadable: serve a miss and unmap
            # the key so the next GET refills it from the backend.
            self.read_errors += 1
            self.index.pop(key, None)
            return None, now_ns
        if not mapped:
            # CRC verification poisoned (unmapped) part of the region —
            # treat exactly like the UECC path above.
            self.read_errors += 1
            self.index.pop(key, None)
            return None, done
        self.flash_reads += pages
        self.hits += 1
        return tuple.__new__(CacheItem, (key, size)), done

    def invalidate(self, key: int) -> bool:
        """Drop a key from the index without I/O (SET supersedes it).

        The dead bytes linger in their region until it is recycled —
        the LOC's application-level write amplification.
        """
        return self.index.pop(key, None) is not None

    def delete(self, key: int, now_ns: int = 0) -> Tuple[bool, int]:
        """Drop a key from the index; space reclaims at region recycle."""
        if self.index.pop(key, None) is None:
            return False, now_ns
        return True, now_ns

    # ------------------------------------------------------------------
    # warm restart
    # ------------------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Rebuild the key→region index from sealed-region headers.

        Call after the device's own power-on recovery.  A region is
        kept only when *every* one of its pages carries the same
        complete header for that region id — a torn flush (power cut
        mid-region-write) fails the check and the region is recycled,
        its leftover pages TRIMmed.  Intact regions are replayed in
        seal-sequence order, so a key present in several generations
        resolves to its newest durable copy.  Returns counters:
        ``regions_recovered``, ``regions_lost``, ``items_recovered``.
        """
        for region in self.regions:
            region.reset()
        self.index.clear()
        self._sealed.clear()
        self._clean.clear()

        intact: List[Tuple[int, int, int, tuple]] = []  # (seq, rid, used, manifest)
        trims: List[Tuple] = []
        lost = 0
        for rid in range(self.num_regions):
            payloads = self.device.read_payload(
                self._region_lba(rid), self.region_pages
            )
            first = payloads[0]
            complete = (
                isinstance(first, tuple)
                and len(first) == 5
                and first[0] == "loc"
                and first[1] == rid
                and all(p == first for p in payloads)
            )
            if complete:
                intact.append((first[2], rid, first[3], first[4]))
                continue
            if any(p is not None for p in payloads):
                # Torn or stale pages: drop them so the device stops
                # carrying dead data for a region we no longer trust.
                # Collected and issued as one batched TRIM below.
                trims.append(("trim", self._region_lba(rid), self.region_pages))
                lost += 1
            self._clean.append(rid)
        if trims:
            self.device.submit_batch(trims, worker="loc")

        items = 0
        intact.sort()
        for seq, rid, used, manifest in intact:
            region = self.regions[rid]
            region.used_bytes = used
            region.sealed = True
            for key, size in manifest:
                stale = self.index.get(key)
                if stale is not None:
                    # Older generation loses; its bytes stay dead weight
                    # in the older region until recycle, as in live
                    # operation.
                    self.regions[stale[0]].keys.remove(key)
                self.index[key] = (rid, size)
                region.keys.append(key)
                items += 1
            self._sealed.append(rid)
        self._seal_seq = intact[-1][0] if intact else 0

        if not self._clean:
            self._evict_one_region()
        self._open = self.regions[self._clean.popleft()]
        self._open.reset()
        return {
            "regions_recovered": len(intact),
            "regions_lost": lost,
            "items_recovered": len(self.index),
            "items_reinserted": items,
        }

    # ------------------------------------------------------------------

    @property
    def footprint_pages(self) -> int:
        """Flash pages the LOC owns."""
        return self.num_regions * self.region_pages

    @property
    def item_count(self) -> int:
        return len(self.index)

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
