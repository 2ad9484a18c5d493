"""Unit tests for the Kangaroo-style small-object engine."""

import pytest

from repro.cache import CacheConfig, CacheItem, HybridCache, SurvivalAdmission
from repro.cache.kangaroo import KangarooCache
from repro.core import FdpAwareDevice


@pytest.fixture
def kangaroo(fdp_ssd):
    layer = FdpAwareDevice(fdp_ssd)
    log_h = layer.allocator.allocate("soc-log")
    set_h = layer.allocator.allocate("soc-set")
    return KangarooCache(
        layer, log_h, set_h, base_lba=0, num_log_pages=8, num_buckets=64,
        move_threshold=2,
    )


def fill_log(kangaroo, start_key, count, size=400):
    for k in range(start_key, start_key + count):
        kangaroo.insert(CacheItem(k, size))


class TestLogPath:
    def test_insert_hits_from_log(self, kangaroo):
        kangaroo.insert(CacheItem(1, 400))
        item, _ = kangaroo.lookup(1)
        assert item == CacheItem(1, 400)
        assert kangaroo.log_hits == 1

    def test_buffered_head_lookup_is_free(self, kangaroo):
        kangaroo.insert(CacheItem(1, 400))
        kangaroo.lookup(1)
        assert kangaroo.flash_reads == 0

    def test_log_page_flush_writes_one_page(self, kangaroo):
        # ~9 items of 400+24 bytes fill a 4 KiB page.
        fill_log(kangaroo, 0, 12)
        assert kangaroo.flash_writes >= 1

    def test_sealed_log_page_lookup_costs_a_read(self, kangaroo):
        fill_log(kangaroo, 0, 12)
        item, _ = kangaroo.lookup(0)  # key 0 now on a sealed page
        assert item is not None
        assert kangaroo.flash_reads >= 1

    def test_superseding_insert_wins(self, kangaroo):
        kangaroo.insert(CacheItem(1, 400))
        kangaroo.insert(CacheItem(1, 500))
        item, _ = kangaroo.lookup(1)
        assert item.size == 500


class TestBatchMove:
    def test_ring_wrap_moves_or_drops(self, kangaroo):
        # Push far more than the log holds; recycled pages must move
        # or drop every staged item.
        fill_log(kangaroo, 0, 400)
        assert kangaroo.moved_items + kangaroo.dropped_items > 0
        # Conservation: every insert is in the log, the sets, moved
        # out, dropped, or superseded.
        assert kangaroo.item_count <= kangaroo.log_inserts

    def test_move_threshold_one_moves_everything(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        cache = KangarooCache(
            layer,
            layer.allocator.allocate("l"),
            layer.allocator.allocate("s"),
            base_lba=0,
            num_log_pages=4,
            num_buckets=64,
            move_threshold=1,
        )
        fill_log(cache, 0, 200)
        assert cache.dropped_items == 0
        assert cache.moved_items > 0

    def test_batch_move_amortizes_bucket_writes(self, fdp_ssd):
        # With threshold 1 and few buckets, multiple staged items share
        # a destination bucket: set writes < moved items.
        layer = FdpAwareDevice(fdp_ssd)
        cache = KangarooCache(
            layer,
            layer.allocator.allocate("l"),
            layer.allocator.allocate("s"),
            base_lba=0,
            num_log_pages=8,
            num_buckets=4,
            move_threshold=1,
        )
        fill_log(cache, 0, 300)
        assert cache.sets.flash_writes < cache.moved_items

    def test_set_resident_items_found_after_move(self, kangaroo):
        fill_log(kangaroo, 0, 400)
        moved_found = 0
        for k in range(400):
            item, _ = kangaroo.lookup(k)
            if item is not None and k not in kangaroo._log_index:
                moved_found += 1
        assert moved_found > 0


class TestEngineInterface:
    def test_accepts_follows_bucket_limit(self, kangaroo):
        assert kangaroo.accepts(CacheItem(1, 1000))
        assert not kangaroo.accepts(CacheItem(1, 10_000))

    def test_contains_covers_log_and_sets(self, kangaroo):
        kangaroo.insert(CacheItem(1, 400))
        assert kangaroo.contains(1)
        assert not kangaroo.contains(2)

    def test_invalidate(self, kangaroo):
        kangaroo.insert(CacheItem(1, 400))
        assert kangaroo.invalidate(1)
        assert not kangaroo.contains(1)
        item, _ = kangaroo.lookup(1)
        assert item is None

    def test_delete(self, kangaroo):
        kangaroo.insert(CacheItem(1, 400))
        removed, _ = kangaroo.delete(1)
        assert removed
        removed, _ = kangaroo.delete(1)
        assert not removed

    def test_validation(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        h = layer.allocator.allocate("x")
        with pytest.raises(ValueError):
            KangarooCache(layer, h, h, 0, num_log_pages=1, num_buckets=4)
        with pytest.raises(ValueError):
            KangarooCache(
                layer, h, h, 0, num_log_pages=4, num_buckets=4,
                move_threshold=0,
            )


class TestHybridIntegration:
    def _cache(self, fdp_ssd, **overrides):
        cfg = CacheConfig(
            dram_bytes=64 * 1024,
            soc_bytes=128 * 4096,
            loc_bytes=1024 * 1024,
            region_bytes=32 * 1024,
            soc_engine="kangaroo",
            **overrides,
        )
        return HybridCache(fdp_ssd, cfg)

    def test_hybrid_with_kangaroo_runs(self, fdp_ssd):
        import random

        cache = self._cache(fdp_ssd)
        rng = random.Random(5)
        for _ in range(4000):
            k = rng.randrange(2000)
            if rng.random() < 0.5:
                cache.set(k, 400)
            else:
                cache.get(k)
        fdp_ssd.check_invariants()
        assert cache.hit_ratio > 0

    def test_kangaroo_gets_two_handles(self, fdp_ssd):
        cache = self._cache(fdp_ssd)
        assert cache.soc.log_handle.pid != cache.soc.sets.handle.pid

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CacheConfig(soc_engine="nope")
        with pytest.raises(ValueError):
            CacheConfig(soc_engine="kangaroo", kangaroo_log_fraction=0.0)
        with pytest.raises(ValueError):
            CacheConfig(soc_engine="kangaroo", kangaroo_move_threshold=0)

    def test_kangaroo_reduces_alwa_vs_plain_soc(self, small_geometry):
        import random

        from repro.ssd import SimulatedSSD

        def run(engine):
            device = SimulatedSSD(small_geometry, fdp=True)
            cfg = CacheConfig(
                dram_bytes=48 * 1024,
                soc_bytes=192 * 4096,
                loc_bytes=512 * 1024,
                region_bytes=32 * 1024,
                soc_engine=engine,
                kangaroo_move_threshold=2,
            )
            cache = HybridCache(device, cfg)
            rng = random.Random(6)
            for _ in range(12_000):
                cache.set(rng.randrange(6000), 300)
            return cache.alwa

        # The log front amortizes bucket rewrites and drops lonely
        # items, so application-level WA falls (Kangaroo's claim).
        assert run("kangaroo") < run("set-associative")


class TestHybridStatsSurface:
    """HybridCache reads the same stats surface from every SOC engine."""

    @pytest.mark.parametrize("engine", ["set-associative", "kangaroo", "nemo"])
    def test_stats_dict_and_resident_items(self, fdp_ssd, engine):
        import json
        import random

        cfg = CacheConfig(
            dram_bytes=16 * 1024,
            soc_bytes=128 * 4096,
            loc_bytes=1024 * 1024,
            region_bytes=32 * 1024,
            soc_engine=engine,
            admission=SurvivalAdmission(),
        )
        cache = HybridCache(fdp_ssd, cfg)
        rng = random.Random(7)
        for _ in range(3000):
            k = rng.randrange(1500)
            if rng.random() < 0.6:
                cache.set(k, 300)
            else:
                cache.get(k)

        stats = cache.stats_dict()
        json.dumps(stats)
        soc = stats["soc"]
        assert soc["engine"] == engine
        assert soc["inserts"] > 0
        assert 0.0 <= soc["hit_ratio"] <= 1.0
        assert soc["flash_writes"] > 0
        if engine == "kangaroo":
            assert soc["flash_writes"] == (
                cache.soc.flash_writes + cache.soc.sets.flash_writes
            )
            assert soc["evictions"] >= cache.soc.dropped_items
        assert stats["admission"]["policy"] == "SurvivalAdmission"
        assert stats["admission"]["warmup_admits"] > 0
        assert "ghosts" in stats["admission"]

        resident = cache.resident_items()
        assert resident
        assert all(cache.contains(k) for k in resident)
