"""Integration-leaning unit tests for the hybrid cache facade."""

import pytest

from repro.cache import CacheConfig, HybridCache
from repro.cache.hybrid import HIT_DRAM, HIT_LOC, HIT_SOC, MISS
from repro.core import FdpAwareDevice, SingleHandlePolicy


def small_config(**overrides):
    defaults = dict(
        dram_bytes=64 * 1024,
        soc_bytes=64 * 4096,
        loc_bytes=2 * 1024 * 1024,
        region_bytes=32 * 1024,
        small_item_threshold=2048,
        metadata_flush_interval=64,
    )
    defaults.update(overrides)
    return CacheConfig(**defaults)


@pytest.fixture
def cache(fdp_ssd):
    return HybridCache(fdp_ssd, small_config())


class TestRouting:
    def test_miss_then_dram_hit(self, cache):
        assert cache.get(1).where == MISS
        cache.set(1, 500)
        assert cache.get(1).where == HIT_DRAM

    def test_small_item_goes_to_soc_on_eviction(self, cache):
        cache.set(1, 500)
        # Push key 1 out of DRAM with other small items.
        for k in range(2, 200):
            cache.set(k, 500)
        assert cache.soc.contains(1)
        assert not cache.loc.contains(1)

    def test_large_item_goes_to_loc_on_eviction(self, cache):
        cache.set(1, 8000)
        for k in range(2, 200):
            cache.set(k, 500)
        assert cache.loc.contains(1)
        assert not cache.soc.contains(1)

    def test_overwrite_too_big_for_dram_is_not_served_stale(self, fdp_ssd):
        cache = HybridCache(fdp_ssd, small_config(dram_bytes=16 * 1024))
        cache.set(1, 500)
        cache.set(1, 20_000)  # over the DRAM budget: straight to the LOC
        assert 1 not in cache.dram
        result = cache.get(1)
        assert result.where == HIT_LOC
        assert result.item.size == 20_000

    def test_soc_hit_promotes_to_dram(self, cache):
        cache.set(1, 500)
        for k in range(2, 200):
            cache.set(k, 500)
        assert cache.get(1).where == HIT_SOC
        assert cache.get(1).where == HIT_DRAM

    def test_loc_hit_promotes_to_dram(self, cache):
        cache.set(1, 8000)
        for k in range(2, 300):
            cache.set(k, 500)
        assert cache.get(1).where == HIT_LOC
        assert cache.get(1).where == HIT_DRAM

    def test_delete_removes_everywhere(self, cache):
        cache.set(1, 500)
        for k in range(2, 200):
            cache.set(k, 500)
        cache.delete(1)
        assert cache.get(1).where == MISS


class TestPlacementWiring:
    def test_soc_and_loc_have_distinct_handles(self, cache):
        assert cache.soc.handle.pid != cache.loc.handle.pid

    def test_fdp_disabled_uses_default_handles(self, fdp_ssd):
        c = HybridCache(fdp_ssd, small_config(enable_fdp_placement=False))
        assert c.soc.handle.is_default
        assert c.loc.handle.is_default

    def test_conventional_device_uses_default_handles(self, conventional_ssd):
        c = HybridCache(conventional_ssd, small_config())
        assert c.soc.handle.is_default

    def test_single_handle_policy(self, fdp_ssd):
        c = HybridCache(fdp_ssd, small_config(), policy=SingleHandlePolicy())
        assert c.soc.handle is c.loc.handle

    def test_shared_io_multi_tenant_handles(self, fdp_ssd):
        io = FdpAwareDevice(fdp_ssd)
        t0 = HybridCache(
            io=io, config=small_config(name="t0", base_lba=0)
        )
        t1 = HybridCache(
            io=io,
            config=small_config(name="t1", base_lba=t0._layout_end_lba),
        )
        handles = {
            t0.soc.handle.pid,
            t0.loc.handle.pid,
            t1.soc.handle.pid,
            t1.loc.handle.pid,
        }
        assert len(handles) == 4  # all four engines segregated

    def test_layout_must_fit_device(self, fdp_ssd):
        with pytest.raises(ValueError):
            HybridCache(fdp_ssd, small_config(loc_bytes=1024 * 1024 * 1024))


class TestSemantics:
    def test_set_invalidates_stale_flash_copy(self, cache):
        cache.set(1, 500)
        for k in range(2, 200):
            cache.set(k, 500)
        assert cache.soc.contains(1)
        cache.set(1, 700)  # supersedes flash copy
        assert not cache.soc.contains(1)

    def test_clean_promote_skips_rewrite(self, cache):
        cache.set(1, 500)
        for k in range(2, 200):
            cache.set(k, 500)
        writes_before = cache.soc.flash_writes
        cache.get(1)  # promote (clean copy stays)
        # Evict it again without modification.
        for k in range(200, 400):
            cache.set(k, 500)
        # Key 1 was clean on flash; no second bucket write needed for it.
        assert cache.soc.contains(1)
        assert cache.soc.flash_writes >= writes_before

    def test_metadata_flushes_use_default_handle(self, cache):
        for k in range(1000):
            cache.set(k, 500)
        assert cache.io.writes_by_handle.get("default", 0) > 0

    def test_admission_rejections_counted(self, fdp_ssd):
        from repro.cache import SizeThresholdAdmission

        c = HybridCache(
            fdp_ssd,
            small_config(admission=SizeThresholdAdmission(1)),
        )
        for k in range(300):
            c.set(k, 500)
        assert c.flash_rejects > 0
        assert c.soc.flash_writes == 0


class TestMetrics:
    def test_hit_ratios(self, cache):
        cache.set(1, 500)
        cache.get(1)
        cache.get(2)
        assert cache.hit_ratio == 0.5

    def test_nvm_hit_ratio_counts_only_dram_misses(self, cache):
        cache.set(1, 500)
        cache.get(1)  # DRAM hit, not an NVM get
        assert cache.nvm_gets == 0
        cache.get(2)  # miss through NVM
        assert cache.nvm_gets == 1
        assert cache.nvm_hit_ratio == 0.0

    def test_alwa_reflects_soc_inflation(self, cache):
        # 500-byte items each cost a 4 KiB bucket write once evicted.
        for k in range(400):
            cache.set(k, 500)
        assert cache.alwa > 1.0

    def test_requires_device_or_io(self):
        with pytest.raises(ValueError):
            HybridCache(None, small_config())


class TestStatsExport:
    def test_stats_dict_is_json_serializable(self, cache):
        import json

        for k in range(300):
            cache.set(k, 500)
            cache.get(k)
        data = cache.stats_dict()
        encoded = json.loads(json.dumps(data))
        assert encoded["sets"] == 300
        assert encoded["soc"]["flash_writes"] > 0
        assert encoded["device"]["dlwa"] >= 1.0

    def test_stats_dict_layers_consistent(self, cache):
        for k in range(100):
            cache.set(k, 500)
        for k in range(150):
            cache.get(k)
        data = cache.stats_dict()
        assert data["gets"] == 150
        assert sum(data["hits_by_layer"].values()) <= data["gets"]
