"""Unit tests for the Large Object Cache engine."""

import pytest

from repro.cache import CacheItem, LargeObjectCache
from repro.core import FdpAwareDevice


@pytest.fixture
def loc_env(fdp_ssd):
    layer = FdpAwareDevice(fdp_ssd)
    handle = layer.allocator.allocate("loc")
    loc = LargeObjectCache(
        layer, handle, base_lba=0, num_regions=8, region_pages=8
    )
    return loc, layer, fdp_ssd


def fill_region(loc, start_key, region_bytes, item_size=8000):
    """Insert items until at least one region flush happened."""
    key = start_key
    flushed = loc.flash_writes
    while loc.flash_writes == flushed:
        loc.insert(CacheItem(key, item_size))
        key += 1
    return key


class TestInsertLookup:
    def test_open_region_hits_without_io(self, loc_env):
        loc, _, _ = loc_env
        loc.insert(CacheItem(1, 10_000))
        item, _ = loc.lookup(1)
        assert item == CacheItem(1, 10_000)
        assert loc.flash_reads == 0  # still buffered in DRAM

    def test_flush_on_region_fill(self, loc_env):
        loc, _, dev = loc_env
        fill_region(loc, 0, loc.region_bytes)
        assert loc.flash_writes > 0
        assert dev.stats.host_pages_written == loc.flash_writes

    def test_sealed_region_lookup_reads_flash(self, loc_env):
        loc, _, _ = loc_env
        next_key = fill_region(loc, 0, loc.region_bytes)
        item, _ = loc.lookup(0)
        assert item is not None
        assert loc.flash_reads > 0

    def test_rejects_item_bigger_than_region(self, loc_env):
        loc, _, _ = loc_env
        admitted, _ = loc.insert(CacheItem(1, loc.region_bytes + 1))
        assert not admitted

    def test_sequential_lba_pattern(self, loc_env):
        loc, layer, dev = loc_env
        for key in range(40):
            loc.insert(CacheItem(key, 8000))
        # All writes land inside the LOC's range.
        assert dev.ftl.valid_page_total() <= loc.footprint_pages

    def test_miss(self, loc_env):
        loc, _, _ = loc_env
        item, _ = loc.lookup(404)
        assert item is None


class TestEviction:
    def test_fifo_recycles_oldest_region(self, loc_env):
        loc, _, _ = loc_env
        # Fill more than all regions to force recycling.
        for key in range(200):
            loc.insert(CacheItem(key, 8000))
        assert loc.evicted_regions > 0
        item, _ = loc.lookup(0)
        assert item is None  # oldest data gone
        assert loc.evicted_items > 0

    def test_overwrite_invalidates_old_copy(self, loc_env):
        loc, _, _ = loc_env
        loc.insert(CacheItem(1, 8000))
        loc.insert(CacheItem(1, 9000))
        item, _ = loc.lookup(1)
        assert item.size == 9000
        assert loc.item_count == 1

    def test_delete_and_invalidate(self, loc_env):
        loc, _, _ = loc_env
        loc.insert(CacheItem(1, 8000))
        removed, _ = loc.delete(1)
        assert removed
        assert not loc.contains(1)
        loc.insert(CacheItem(2, 8000))
        assert loc.invalidate(2)
        assert not loc.invalidate(2)


class TestRuAwareTrim:
    def test_trim_deallocates_recycled_region(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        loc = LargeObjectCache(
            layer,
            layer.allocator.allocate("loc"),
            base_lba=0,
            num_regions=4,
            region_pages=8,
            ru_aware_trim=True,
        )
        before = fdp_ssd.stats.pages_deallocated
        for key in range(120):
            loc.insert(CacheItem(key, 8000))
        assert fdp_ssd.stats.pages_deallocated > before


class TestValidation:
    def test_needs_two_regions(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        h = layer.allocator.allocate("loc")
        with pytest.raises(ValueError):
            LargeObjectCache(layer, h, 0, num_regions=1, region_pages=8)

    def test_accounting(self, loc_env):
        loc, _, _ = loc_env
        loc.insert(CacheItem(1, 8000))
        assert loc.app_bytes_written == 8000
        assert loc.item_count == 1
