"""Unit tests for the Nemo-style log-structured tiny-object engine."""

import pytest

from repro.cache import CacheConfig, CacheItem, HybridCache
from repro.cache.nemo import NEMO_PAGE_HEADER_BYTES, NemoCache
from repro.core import FdpAwareDevice
from repro.faults.model import FaultConfig
from repro.faults.plan import ScriptedFault
from repro.ssd import SimulatedSSD

NUM_PAGES = 16
REGION = 4


def make_nemo(ssd, **kw):
    layer = FdpAwareDevice(ssd)
    handle = layer.allocator.allocate("soc")
    kw.setdefault("region_pages", REGION)
    kw.setdefault("index_ways", 8)
    return NemoCache(layer, handle, base_lba=0, num_pages=NUM_PAGES, **kw)


@pytest.fixture
def nemo(fdp_ssd):
    return make_nemo(fdp_ssd)


def fill(nemo, start_key, count, size=400):
    for k in range(start_key, start_key + count):
        nemo.insert(CacheItem(k, size))


class TestLogPath:
    def test_insert_and_lookup(self, nemo):
        nemo.insert(CacheItem(1, 400))
        item, _ = nemo.lookup(1)
        assert item == CacheItem(1, 400)

    def test_buffered_head_lookup_is_free(self, nemo):
        nemo.insert(CacheItem(1, 400))
        nemo.lookup(1)
        assert nemo.flash_reads == 0

    def test_fill_flushes_one_page_per_fill(self, nemo):
        # ~9 items of 400+24 bytes fill a 4 KiB page.
        fill(nemo, 0, 12)
        assert nemo.flash_writes >= 1
        assert nemo.ssd_bytes_written == nemo.flash_writes * nemo.page_size

    def test_sealed_page_lookup_costs_a_read(self, nemo):
        fill(nemo, 0, 12)
        item, _ = nemo.lookup(0)
        assert item is not None
        assert nemo.flash_reads == 1

    def test_absent_key_lookup_is_free(self, nemo):
        fill(nemo, 0, 12)
        reads = nemo.flash_reads
        item, _ = nemo.lookup(999_999)
        assert item is None
        assert nemo.flash_reads == reads  # the DRAM index answered

    def test_overwrite_wins_without_io(self, nemo):
        nemo.insert(CacheItem(1, 400))
        nemo.insert(CacheItem(1, 500))
        item, _ = nemo.lookup(1)
        assert item.size == 500

    def test_delete_is_free(self, nemo):
        nemo.insert(CacheItem(1, 400))
        writes = nemo.flash_writes
        removed, _ = nemo.delete(1)
        assert removed
        assert not nemo.contains(1)
        assert nemo.flash_writes == writes  # no page rewrite

    def test_oversized_item_rejected(self, nemo):
        huge = nemo.usable_page_bytes + 1
        assert not nemo.accepts(CacheItem(1, huge))
        ok, _ = nemo.insert(CacheItem(1, huge))
        assert not ok
        assert nemo.inserts == 0


class TestReclaim:
    def test_ring_wrap_reclaims_regions(self, nemo):
        fill(nemo, 0, 400)
        assert nemo.regions_reclaimed > 0
        assert nemo.dropped_items > 0

    def test_cold_items_are_dropped_not_reinserted(self, fdp_ssd):
        nemo = make_nemo(fdp_ssd, reinsert_fraction=0.5)
        fill(nemo, 0, 400)  # never looked up: nothing is hot
        assert nemo.reinserted_items == 0

    def test_hot_items_are_reinserted(self, fdp_ssd):
        nemo = make_nemo(fdp_ssd, reinsert_fraction=0.5)
        for round_ in range(60):
            fill(nemo, round_ * 8, 8)
            nemo.lookup(0)  # keep key 0 hot across reclaims
        assert nemo.reinserted_items > 0
        assert nemo.reinsert_bytes > 0

    def test_zero_fraction_is_pure_fifo(self, fdp_ssd):
        nemo = make_nemo(fdp_ssd, reinsert_fraction=0.0)
        for round_ in range(60):
            fill(nemo, round_ * 8, 8)
            nemo.lookup(0)
        assert nemo.reinserted_items == 0

    def test_reinsertion_wa_is_bounded(self, fdp_ssd):
        """Explicit WA meter: reinserted bytes per reclaim stay under
        the budget fraction of the reclaimed region's bytes."""
        frac = 0.25
        nemo = make_nemo(fdp_ssd, reinsert_fraction=frac)
        hot = list(range(8))
        key = 100
        for round_ in range(80):
            for h in hot:
                nemo.insert(CacheItem(h, 400))
                nemo.lookup(h)
            fill(nemo, key, 8)
            key += 8
        region_bytes = REGION * nemo.usable_page_bytes
        assert nemo.regions_reclaimed > 0
        assert (
            nemo.reinsert_bytes
            <= nemo.regions_reclaimed * region_bytes * frac
        )

    def test_conservation(self, nemo):
        """Every insert is resident, dropped, superseded, or index-
        evicted — nothing simply vanishes from the accounting."""
        fill(nemo, 0, 500)
        accounted = (
            nemo.item_count + nemo.dropped_items + nemo.index_evictions
            + nemo.write_drops
        )
        assert accounted <= nemo.inserts + nemo.reinserted_items
        assert nemo.item_count <= nemo.inserts


class TestIndex:
    def test_full_set_evicts_oldest_way(self, fdp_ssd):
        nemo = make_nemo(fdp_ssd, index_ways=1)
        # With 1-way sets, any two keys in one set collide.
        fill(nemo, 0, 200)
        assert nemo.index_evictions > 0
        assert nemo.evictions == nemo.dropped_items + nemo.index_evictions

    def test_resident_items_reachable(self, nemo):
        fill(nemo, 0, 12)
        resident = nemo.resident_items()
        assert resident  # at least the latest fills
        for key, size in resident.items():
            item, _ = nemo.lookup(key)
            assert item == CacheItem(key, size)

    def test_bloom_rejects_always_zero(self, nemo):
        fill(nemo, 0, 50)
        nemo.lookup(999_999)
        assert nemo.bloom_rejects == 0


class TestMediaErrorDegradation:
    """Engine-level fault contract (referenced by the ablation soak):
    a MediaError that survives the device layer's retry ladder degrades
    to a miss or a dropped page — never an exception to the caller."""

    def test_unreadable_page_degrades_to_miss(self, small_geometry):
        # 4 consecutive UECCs at one LBA exhaust the layer's 3 retries.
        faults = FaultConfig(
            plan=(ScriptedFault(op="read", lba=0, times=4),)
        )
        ssd = SimulatedSSD(small_geometry, fdp=True, faults=faults)
        nemo = make_nemo(ssd)
        fill(nemo, 0, 12)  # key 0 sealed onto page 0 (lba 0)
        item, _ = nemo.lookup(0)
        assert item is None
        assert nemo.read_errors == 1
        assert not nemo.contains(0)  # the whole page was dropped
        # The engine keeps serving.
        nemo.insert(CacheItem(900, 400))
        assert nemo.lookup(900)[0] is not None

    def test_failed_flush_drops_page_and_advances(self, small_geometry):
        # The FTL absorbs up to 8 consecutive program fails per
        # command and the device layer retries the command once, so 16
        # scripted failures guarantee the engine sees the MediaError.
        faults = FaultConfig(
            plan=(ScriptedFault(op="program", times=16),)
        )
        ssd = SimulatedSSD(small_geometry, fdp=True, faults=faults)
        nemo = make_nemo(ssd)
        fill(nemo, 0, 12)  # fills page 0, triggers the failing flush
        assert nemo.write_errors == 1
        assert nemo.write_drops > 0
        fill(nemo, 100, 12)  # subsequent fills land on later pages
        assert nemo.flash_writes >= 1


class TestRecovery:
    def test_warm_restart_recovers_flushed_pages(self, fdp_ssd):
        nemo = make_nemo(fdp_ssd)
        fill(nemo, 0, 40)  # several sealed pages + a buffered frontier
        frontier_keys = [i.key for i in nemo._page_items[nemo._head]]
        resident_before = nemo.resident_items()
        fdp_ssd.power_cut()
        fdp_ssd.recover()
        report = nemo.recover()
        assert report["pages_recovered"] > 0
        assert report["items_recovered"] > 0
        # Recovered keys still serve; the frontier page is lost.
        for key in frontier_keys:
            assert not nemo.contains(key)
        recovered = nemo.resident_items()
        for key, size in recovered.items():
            assert resident_before.get(key) == size

class TestHybridIntegration:
    def test_config_selects_nemo_engine(self, fdp_ssd):
        config = CacheConfig.for_flash_cache(
            8 * 1024 * 1024,
            page_size=fdp_ssd.page_size,
            enable_fdp_placement=True,
            soc_engine="nemo",
        )
        cache = HybridCache(fdp_ssd, config)
        assert isinstance(cache.soc, NemoCache)
        now = cache.set(1, 300, 0)
        assert cache.get(1, now).hit

    def test_nemo_knobs_flow_through_config(self, fdp_ssd):
        config = CacheConfig.for_flash_cache(
            8 * 1024 * 1024,
            page_size=fdp_ssd.page_size,
            enable_fdp_placement=True,
            soc_engine="nemo",
            nemo_region_pages=2,
            nemo_index_ways=4,
            nemo_reinsert_fraction=0.5,
        )
        cache = HybridCache(fdp_ssd, config)
        assert cache.soc.region_pages == 2
        assert cache.soc.index_ways == 4
        assert cache.soc.reinsert_fraction == 0.5


class TestValidation:
    def test_constructor_validation(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        handle = layer.allocator.allocate("soc")
        with pytest.raises(ValueError):
            NemoCache(layer, handle, 0, 1)
        with pytest.raises(ValueError):
            NemoCache(layer, handle, 0, 8, region_pages=0)
        with pytest.raises(ValueError):
            NemoCache(layer, handle, 0, 8, index_ways=0)
        with pytest.raises(ValueError):
            NemoCache(layer, handle, 0, 8, reinsert_fraction=1.5)

    def test_header_reserves_page_bytes(self, nemo):
        assert (
            nemo.usable_page_bytes
            == nemo.page_size - NEMO_PAGE_HEADER_BYTES
        )
