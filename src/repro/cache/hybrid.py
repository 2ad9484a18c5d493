"""The hybrid DRAM + flash cache (CacheLib-style engine pair).

Wires together the DRAM LRU front, the SOC and LOC flash engines, the
admission policy, and the placement machinery of :mod:`repro.core`:

* at initialization the SOC and LOC each receive a placement handle
  from the allocator (Figure 4's placement handle allocator);
* every flash write is tagged with its engine's handle; with FDP off
  (either side) the default handle flows through the identical code
  path — the paper's backward-compatibility requirement;
* metadata (a minor consumer) is flushed periodically *without* a
  placement preference, landing on the device's default RUH.

Data path, as in CacheLib: GETs check DRAM, then SOC, then LOC; an NVM
hit promotes the item into DRAM.  SETs insert into DRAM; DRAM evictions
flow through the admission policy and are routed by size to SOC or LOC.
That eviction-driven flash write stream is what creates the two write
patterns whose intermixing the paper studies.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..core.device_layer import FdpAwareDevice
from ..core.policies import PlacementPolicy, StaticSegregationPolicy
from ..faults.errors import MediaError
from ..ssd.device import SimulatedSSD
from .config import CacheConfig
from .dram import DramCache
from .item import CacheItem
from .loc import LargeObjectCache
from .soc import SmallObjectCache

__all__ = [
    "HybridCache",
    "GetResult",
    "HIT_DRAM",
    "HIT_SOC",
    "HIT_LOC",
    "MISS",
    "BROWNOUT_HEALTHY",
    "BROWNOUT_SHED_LOC",
    "METADATA_PAGES",
]

HIT_DRAM = "dram"
HIT_SOC = "soc"
HIT_LOC = "loc"
MISS = "miss"

# Brownout modes (overload protection; see repro.fleet.governor).
BROWNOUT_HEALTHY = "healthy"
BROWNOUT_SHED_LOC = "brownout"

#: Pages of the cache's slice, ahead of the SOC, that the periodic
#: metadata flush cycles through.
METADATA_PAGES = 4
#: Simulated cost of a DRAM-only GET or SET.
DRAM_OP_NS = 2_000


@dataclasses.dataclass(frozen=True)
class GetResult:
    """Outcome of one GET."""

    where: str
    item: Optional[CacheItem]
    completion_ns: int

    @property
    def hit(self) -> bool:
        return self.where != MISS


class HybridCache:
    """A DRAM + SOC + LOC cache instance over a (possibly shared) SSD.

    Parameters
    ----------
    device:
        The simulated SSD.  Ignored when ``io`` is given.
    config:
        Deployment shape (sizes, thresholds, FDP switch, ...).
    io:
        Optionally a shared :class:`FdpAwareDevice`; multi-tenant
        deployments (Figure 11) pass the same ``io`` to every tenant so
        placement handles come from one allocator.
    policy:
        Placement policy; defaults to the paper's static SOC/LOC
        segregation.
    """

    def __init__(
        self,
        device: Optional[SimulatedSSD] = None,
        config: Optional[CacheConfig] = None,
        *,
        io: Optional[FdpAwareDevice] = None,
        policy: Optional[PlacementPolicy] = None,
    ) -> None:
        if config is None:
            config = CacheConfig()
        if io is None:
            if device is None:
                raise ValueError("need a device or a shared io layer")
            io = FdpAwareDevice(
                device, enable_placement=config.enable_fdp_placement
            )
        self.config = config
        self.io = io
        self.device = io.ssd

        page = self.device.page_size
        soc_pages = config.soc_bytes // page
        region_pages = max(1, config.region_bytes // page)
        loc_pages = config.loc_bytes // page
        num_regions = loc_pages // region_pages
        if num_regions < 2:
            raise ValueError("loc_bytes too small for two regions")

        meta_base = config.base_lba
        soc_base = meta_base + METADATA_PAGES
        loc_base = soc_base + soc_pages
        end_lba = loc_base + num_regions * region_pages
        if end_lba > self.device.capacity_pages:
            raise ValueError(
                f"cache layout [{config.base_lba}, {end_lba}) exceeds device "
                f"capacity {self.device.capacity_pages} pages"
            )
        self._layout_end_lba = end_lba

        self.policy: PlacementPolicy = policy or StaticSegregationPolicy()
        soc_name = f"{config.name}.soc"
        loc_name = f"{config.name}.loc"
        consumers = [soc_name, loc_name]
        if config.soc_engine == "kangaroo":
            soc_log_name = f"{config.name}.soc-log"
            consumers = [soc_name, soc_log_name, loc_name]
        self.policy.setup(io.allocator, consumers)
        self._soc_name = soc_name
        self._loc_name = loc_name
        self._on_write = getattr(self.policy, "on_write", None)

        self.dram = DramCache(config.dram_bytes)
        if config.soc_engine == "nemo":
            from .nemo import NemoCache

            self.soc: "SmallObjectCache | NemoCache" = NemoCache(
                io,
                self.policy.handle_for(soc_name),
                soc_base,
                max(2, soc_pages),
                region_pages=config.nemo_region_pages,
                index_ways=config.nemo_index_ways,
                reinsert_fraction=config.nemo_reinsert_fraction,
            )
        elif config.soc_engine == "kangaroo":
            from .kangaroo import KangarooCache

            log_pages = max(
                2, int(soc_pages * config.kangaroo_log_fraction)
            )
            self.soc: "SmallObjectCache | KangarooCache" = KangarooCache(
                io,
                self.policy.handle_for(soc_log_name),
                self.policy.handle_for(soc_name),
                soc_base,
                log_pages,
                max(1, soc_pages - log_pages),
                move_threshold=config.kangaroo_move_threshold,
            )
        else:
            self.soc = SmallObjectCache(
                io,
                self.policy.handle_for(soc_name),
                soc_base,
                max(1, soc_pages),
            )
        self.loc = LargeObjectCache(
            io,
            self.policy.handle_for(loc_name),
            loc_base,
            num_regions,
            region_pages,
            ru_aware_trim=config.ru_aware_trim,
        )
        self._meta_base = meta_base
        self._meta_counter = 0

        assert config.admission is not None
        # Feature-collecting policies (SurvivalAdmission) get the
        # GET/SET observation stream; for everyone else the observer is
        # None and the hot path pays a single identity check per op.
        self._admission_observer = (
            config.admission if config.admission.collects_features else None
        )

        self.gets = 0
        self.sets = 0
        self.deletes = 0
        self.nvm_gets = 0  # GETs that missed DRAM: the rest hit it
        self._nvm_hits = {HIT_SOC: 0, HIT_LOC: 0}
        self.app_set_bytes = 0
        self.flash_admits = 0
        self.flash_rejects = 0
        self.metadata_write_errors = 0
        # Overload brownout (driven by the fleet load governor):
        # "healthy" is the bit-identical default; "brownout" sheds
        # LOC-bound flash admissions (the big sequential writes) while
        # SOC admissions and all reads proceed.  GETs are never shed.
        self.brownout_mode = BROWNOUT_HEALTHY
        self.shed_loc_admissions = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _flush_metadata(self, now_ns: int) -> int:
        """Minor consumer: periodic metadata flush on the default RUH."""
        page = self._meta_counter // self.config.metadata_flush_interval
        lba = self._meta_base + (page % METADATA_PAGES)
        try:
            return self.io.write(
                lba, 1, self.io.allocator.default(), now_ns, worker="meta"
            )
        except MediaError:
            # Metadata flushes are periodic and idempotent; a failed one
            # is simply retried at the next interval.
            self.metadata_write_errors += 1
            return now_ns

    def _admit_to_flash(self, item: CacheItem, now_ns: int) -> int:
        """Run one DRAM eviction through admission + engine routing.

        Keeps the engine's live SOC/LOC write pattern current: SOC
        inserts are dynamic per-engine tags on the I/O path (Figure 4).
        """
        config = self.config
        assert config.admission is not None
        small = (
            item.size <= config.small_item_threshold
            and self.soc.accepts(item)
        )
        if not small and self.brownout_mode != BROWNOUT_HEALTHY:
            # Brownout: LOC admissions are the first load shed — the
            # multi-page sequential writes that feed device backlog.
            # The item simply falls out of the cache (a future GET
            # misses), which is always safe for a cache.
            self.shed_loc_admissions += 1
            return now_ns
        engine = self.soc if small else self.loc
        if engine.contains(item.key):
            # A clean copy is already on flash (the item was promoted
            # from NVM and not modified); skip the rewrite.
            return now_ns
        if not config.admission.admit(item):
            self.flash_rejects += 1
            return now_ns
        self.flash_admits += 1
        if self._on_write is not None:
            self._on_write(self._soc_name if small else self._loc_name, item.size)
        _, done = engine.insert(item, now_ns)
        self._meta_counter += 1
        if self._meta_counter % config.metadata_flush_interval:
            return done
        return self._flush_metadata(done)

    def set_brownout_mode(self, mode: str) -> None:
        """Switch overload shedding (``healthy`` restores full service).

        Driven by the per-shard load governor
        (:class:`repro.fleet.governor.LoadGovernor`); safe to flip at
        any op boundary.  ``healthy`` mode takes the exact pre-brownout
        code path, so a governor that never trips leaves the cache
        bit-identical to one that was never attached.
        """
        if mode not in (BROWNOUT_HEALTHY, BROWNOUT_SHED_LOC):
            raise ValueError(f"unknown brownout mode {mode!r}")
        self.brownout_mode = mode

    def _promote(self, item: CacheItem, now_ns: int) -> int:
        """Insert an NVM hit into DRAM; spill any DRAM evictions down.

        Promotion (and the flash admissions it cascades into) runs
        asynchronously in CacheLib, so the returned completion time is
        only used for the *background* timeline — callers must not add
        it to the foreground GET latency.
        """
        done = now_ns
        if self._admission_observer is not None:
            # A promotion starts a fresh DRAM residency for the item.
            self._admission_observer.observe_insert(item.key, item.size)
        for evicted in self.dram.set(item):
            if evicted.key != item.key:
                done = self._admit_to_flash(evicted, done)
        return done

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def get(self, key: int, now_ns: int = 0) -> GetResult:
        """Look up a key across DRAM, SOC, and LOC."""
        where, item, done = self.get_where(key, now_ns)
        return GetResult(where, item, done)

    def get_where(self, key: int, now_ns: int = 0):
        """GET returning a plain ``(where, item, completion_ns)`` tuple.

        The replay loop (:func:`repro.bench.driver.replay`) and the
        fleet's shard backend issue millions of GETs and only branch on
        ``where``; this is the same lookup as :meth:`get` — every
        counter, promotion, and engine effect included — minus the
        per-call :class:`GetResult` allocation.
        """
        self.gets += 1
        if self._admission_observer is not None:
            self._admission_observer.observe_access(key)
        item = self.dram.get(key)
        if item is not None:
            return HIT_DRAM, item, now_ns + DRAM_OP_NS
        self.nvm_gets += 1
        item, done = self.soc.lookup(key, now_ns)
        if item is not None:
            self._nvm_hits[HIT_SOC] += 1
            self._promote(item, done)  # async: not on the GET's path
            return HIT_SOC, item, done
        item, done = self.loc.lookup(key, done)
        if item is not None:
            self._nvm_hits[HIT_LOC] += 1
            self._promote(item, done)  # async: not on the GET's path
            return HIT_LOC, item, done
        return MISS, None, done

    def set(self, key: int, size: int, now_ns: int = 0) -> int:
        """Insert/overwrite an object; returns completion time."""
        self.sets += 1
        self.app_set_bytes += size
        if self._admission_observer is not None:
            self._admission_observer.observe_insert(key, size)
        item = CacheItem(key, size)
        # A mutation supersedes any flash copy; the clean-copy shortcut
        # in _admit_to_flash must not suppress the eventual rewrite.
        self.soc.invalidate(key)
        self.loc.invalidate(key)
        done = now_ns + DRAM_OP_NS
        for evicted in self.dram.set(item):
            done = self._admit_to_flash(evicted, done)
        return done

    def delete(self, key: int, now_ns: int = 0) -> int:
        """Remove a key from every layer; returns completion time."""
        self.deletes += 1
        self.dram.delete(key)
        _, done = self.soc.delete(key, now_ns)
        self.loc.delete(key, done)
        return done

    # ------------------------------------------------------------------
    # non-mutating introspection (fleet placement audits)
    # ------------------------------------------------------------------

    def contains(self, key: int) -> bool:
        """Membership across all layers — no I/O, no LRU promotion."""
        return (
            key in self.dram
            or self.soc.contains(key)
            or self.loc.contains(key)
        )

    def resident_items(self) -> dict:
        """key → logical size of everything resident in any layer.

        Pure index walk: charges no device I/O and mutates no recency
        state, so it is safe mid-run.  Where a key is resident in
        multiple layers the freshest copy wins (DRAM over SOC over
        LOC), matching lookup order.
        """
        out = self.loc.resident_items()
        out.update(self.soc.resident_items())
        out.update(self.dram.resident_items())
        return out

    # ------------------------------------------------------------------
    # warm restart
    # ------------------------------------------------------------------

    def recover(self, now_ns: Optional[int] = None) -> dict:
        """Warm-restart the cache after a power cut.

        Runs the device's own power-on recovery first (if it is still
        dark), then rebuilds every DRAM-side structure from what the
        media durably holds: the DRAM LRU front restarts empty (its
        contents were volatile by definition), the SOC re-reads its
        bucket headers, and the LOC re-reads its sealed-region
        manifests.  Items that only existed in DRAM, in the LOC's open
        region buffer, or on torn flash pages are gone — counted, not
        resurrected.

        Returns a JSON-serializable report with per-layer recovered
        counts, the totals lost relative to the pre-cut cache, and the
        device's own :class:`~repro.ssd.recovery.RecoveryReport`
        numbers.
        """
        items_before = (
            len(self.dram) + self.soc.item_count + self.loc.item_count
        )
        device_report = None
        if self.device.powered_off:
            device_report = self.device.recover(now_ns)
        self.dram = DramCache(self.config.dram_bytes)
        soc_report = self.soc.recover()
        loc_report = self.loc.recover()
        recovered = self.soc.item_count + self.loc.item_count
        report = {
            "items_before": items_before,
            "items_recovered": recovered,
            "items_lost": max(0, items_before - recovered),
            "soc": soc_report,
            "loc": loc_report,
        }
        if device_report is not None:
            report["device"] = {
                "mappings_recovered": device_report.mappings_recovered,
                "torn_pages_discarded": device_report.torn_pages_discarded,
                "journal_entries_replayed": (
                    device_report.journal_entries_replayed
                ),
                "checkpoint_seq": device_report.checkpoint_seq,
            }
        return report

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    @property
    def hits_by_layer(self) -> dict:
        """GET hits per layer; every GET that reached no flash hit DRAM."""
        return {HIT_DRAM: self.gets - self.nvm_gets, **self._nvm_hits}

    @property
    def hit_ratio(self) -> float:
        """Overall GET hit ratio (DRAM + NVM)."""
        hits = sum(self.hits_by_layer.values())
        return hits / self.gets if self.gets else 0.0

    @property
    def nvm_hit_ratio(self) -> float:
        """Hit ratio of the flash layer among GETs that missed DRAM."""
        nvm_hits = self.hits_by_layer[HIT_SOC] + self.hits_by_layer[HIT_LOC]
        return nvm_hits / self.nvm_gets if self.nvm_gets else 0.0

    def stats_dict(self) -> dict:
        """Full metric snapshot as plain JSON-serializable types.

        The cachebench tool and operators' dashboards consume this; it
        aggregates the per-engine counters alongside the hybrid-level
        ratios.
        """
        return {
            "gets": self.gets,
            "sets": self.sets,
            "deletes": self.deletes,
            "hit_ratio": self.hit_ratio,
            "dram_hit_ratio": self.dram.hit_ratio,
            "nvm_hit_ratio": self.nvm_hit_ratio,
            "hits_by_layer": dict(self.hits_by_layer),
            "alwa": self.alwa,
            "flash_admits": self.flash_admits,
            "flash_rejects": self.flash_rejects,
            "app_set_bytes": self.app_set_bytes,
            "brownout_mode": self.brownout_mode,
            "shed_loc_admissions": self.shed_loc_admissions,
            "admission": self._admission_stats(),
            "soc": {
                "engine": self.config.soc_engine,
                "items": self.soc.item_count,
                "inserts": self.soc.inserts,
                "evictions": self.soc.evictions,
                "hit_ratio": self.soc.hit_ratio,
                "bloom_rejects": self.soc.bloom_rejects,
                "flash_reads": self.soc.flash_reads,
                "flash_writes": getattr(
                    self.soc, "total_flash_writes", self.soc.flash_writes
                ),
            },
            "loc": {
                "items": self.loc.item_count,
                "inserts": self.loc.inserts,
                "evicted_regions": self.loc.evicted_regions,
                "evicted_items": self.loc.evicted_items,
                "hit_ratio": self.loc.hit_ratio,
                "flash_reads": self.loc.flash_reads,
                "flash_writes": self.loc.flash_writes,
            },
            "device": {
                "dlwa": self.device.dlwa,
                "host_pages_written": self.device.stats.host_pages_written,
                "nand_pages_written": self.device.stats.nand_pages_written,
                "gc_relocation_events": (
                    self.device.events.media_relocated_events
                ),
            },
            "faults": {
                "read_errors": self.read_errors,
                "write_errors": self.write_errors,
                "write_drops": self.write_drops,
                "metadata_write_errors": self.metadata_write_errors,
                "io_retries": self.io.read_retries + self.io.write_retries,
                "retries_exhausted": self.io.retries_exhausted,
                "device_media_errors": self.device.stats.media_errors,
                "retired_superblocks": (
                    self.device.stats.superblocks_retired
                ),
            },
            "integrity": {
                "reads_corrected": self.device.stats.reads_corrected,
                "soft_decode_retries": (
                    self.device.stats.soft_decode_retries
                ),
                "crc_detected_corruptions": (
                    self.device.stats.crc_detected_corruptions
                ),
                "scrub_passes": self.device.stats.scrub_passes,
                "scrub_pages_scanned": (
                    self.device.stats.scrub_pages_scanned
                ),
                "scrub_pages_relocated": (
                    self.device.stats.scrub_pages_relocated
                ),
                "scrub_blocks_retired": (
                    self.device.stats.scrub_blocks_retired
                ),
            },
        }

    def _admission_stats(self) -> dict:
        """Admission-policy snapshot for dashboards and the nvme tool."""
        policy = self.config.admission
        out = {
            "policy": type(policy).__name__,
            "offered": policy.offered,
            "admitted": policy.admitted,
            "admit_ratio": policy.admit_ratio,
        }
        extra = getattr(policy, "stats_dict", None)
        if extra is not None:
            out.update(extra())
        return out

    @property
    def read_errors(self) -> int:
        """Flash read errors the engines degraded into misses."""
        return self.soc.read_errors + self.loc.read_errors

    @property
    def write_errors(self) -> int:
        """Flash write failures the engines absorbed (plus metadata)."""
        return (
            self.soc.write_errors
            + self.loc.write_errors
            + self.metadata_write_errors
        )

    @property
    def write_drops(self) -> int:
        """Cached entries dropped because their flash write failed."""
        return self.soc.write_drops + self.loc.write_drops

    @property
    def alwa(self) -> float:
        """Application-level write amplification (paper Eq. 2):
        bytes written to the SSD over bytes the application wrote."""
        if self.app_set_bytes == 0:
            return 1.0
        return self.io.bytes_written / self.app_set_bytes
