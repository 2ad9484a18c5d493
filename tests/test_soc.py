"""Unit tests for the Small Object Cache engine."""

import random

import pytest

from repro.bench import CacheBench, DEFAULT_SCALE, build_experiment
from repro.bench.runner import make_trace
from repro.cache import CacheItem, HybridCache, SmallObjectCache
from repro.cache.hybrid import MISS
from repro.cache.item import ITEM_HEADER_BYTES
from repro.core import FdpAwareDevice
from repro.faults.errors import ProgramFailError
from tests.test_hybrid import small_config
from tests.test_properties_soc_index import (
    bloom_a_lookup_reads,
    check_index,
    eager_bloom,
)


@pytest.fixture
def soc_env(fdp_ssd):
    layer = FdpAwareDevice(fdp_ssd)
    handle = layer.allocator.allocate("soc")
    soc = SmallObjectCache(layer, handle, base_lba=0, num_buckets=64)
    return soc, layer, fdp_ssd


class TestInsertLookup:
    def test_insert_then_lookup(self, soc_env):
        soc, _, _ = soc_env
        admitted, _ = soc.insert(CacheItem(1, 500))
        assert admitted
        item, _ = soc.lookup(1)
        assert item == CacheItem(1, 500)
        assert soc.hit_ratio == 1.0

    def test_lookup_miss(self, soc_env):
        soc, _, _ = soc_env
        item, _ = soc.lookup(999)
        assert item is None

    def test_insert_writes_one_page(self, soc_env):
        soc, layer, dev = soc_env
        soc.insert(CacheItem(1, 500))
        assert soc.flash_writes == 1
        assert dev.stats.host_pages_written == 1

    def test_insert_rewrites_same_bucket_lba(self, soc_env):
        soc, _, dev = soc_env
        key = 5
        soc.insert(CacheItem(key, 100))
        soc.insert(CacheItem(key, 200))
        # Same bucket page overwritten -> only 1 valid page on flash.
        assert dev.ftl.valid_page_total() == 1

    def test_rejects_item_larger_than_bucket(self, soc_env):
        soc, _, _ = soc_env
        admitted, _ = soc.insert(CacheItem(1, 5000))
        assert not admitted
        assert soc.flash_writes == 0

    def test_overwrite_updates_size(self, soc_env):
        soc, _, _ = soc_env
        soc.insert(CacheItem(1, 100))
        soc.insert(CacheItem(1, 300))
        item, _ = soc.lookup(1)
        assert item.size == 300


class TestBucketBehaviour:
    def test_uniform_hash_spreads_keys(self, soc_env):
        soc, _, _ = soc_env
        buckets = {soc.bucket_of(k) for k in range(1000)}
        assert len(buckets) == soc.num_buckets

    def test_bucket_overflow_evicts_fifo(self, soc_env):
        soc, _, _ = soc_env
        bucket = soc.bucket_of(0)
        same_bucket = [k for k in range(100_000) if soc.bucket_of(k) == bucket]
        item_bytes = 1000
        fits = soc.usable_bucket_bytes // (item_bytes + ITEM_HEADER_BYTES)
        keys = same_bucket[: fits + 1]
        for k in keys:
            soc.insert(CacheItem(k, item_bytes))
        assert soc.evictions == 1
        first, _ = soc.lookup(keys[0])
        assert first is None  # FIFO: oldest evicted
        last, _ = soc.lookup(keys[-1])
        assert last is not None

    def test_bloom_avoids_reads_for_absent_keys(self, soc_env):
        soc, _, _ = soc_env
        for k in range(2000, 2600):
            soc.lookup(k)
        assert soc.bloom_rejects > 0
        assert soc.flash_reads < 600


class TestDeleteInvalidate:
    def test_delete_rewrites_bucket(self, soc_env):
        soc, _, _ = soc_env
        soc.insert(CacheItem(1, 100))
        removed, _ = soc.delete(1)
        assert removed
        assert soc.flash_writes == 2
        item, _ = soc.lookup(1)
        assert item is None

    def test_delete_missing_is_noop(self, soc_env):
        soc, _, _ = soc_env
        removed, _ = soc.delete(77)
        assert not removed
        assert soc.flash_writes == 0

    def test_invalidate_is_io_free(self, soc_env):
        soc, _, _ = soc_env
        soc.insert(CacheItem(1, 100))
        assert soc.invalidate(1)
        assert soc.flash_writes == 1  # only the insert wrote
        assert not soc.contains(1)

    def test_invalidate_missing(self, soc_env):
        soc, _, _ = soc_env
        assert not soc.invalidate(123)


class TestAccounting:
    def test_alwa_inputs(self, soc_env):
        soc, _, _ = soc_env
        soc.insert(CacheItem(1, 100))
        soc.insert(CacheItem(2, 200))
        assert soc.app_bytes_written == 300
        assert soc.ssd_bytes_written == 2 * soc.bucket_size

    def test_item_count(self, soc_env):
        soc, _, _ = soc_env
        for k in range(10):
            soc.insert(CacheItem(k, 50))
        assert soc.item_count == 10

    def test_validation(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        h = layer.allocator.allocate("soc")
        with pytest.raises(ValueError):
            SmallObjectCache(layer, h, base_lba=0, num_buckets=0)
        with pytest.raises(ValueError):
            SmallObjectCache(layer, h, base_lba=-1, num_buckets=4)


class TestMaskMemo:
    """The mask index holds exactly the resident keys, whatever happens
    (the rule-by-rule version is tests/test_properties_soc_index.py)."""

    check = staticmethod(check_index)

    def test_memo_bounded_by_item_count_under_churn(self, soc_env):
        soc, _, dev = soc_env
        rng = random.Random(0xB100)
        for step in range(3000):
            key = rng.randrange(600)
            roll = rng.random()
            if roll < 0.55:
                # 900-byte items overflow a bucket after four: FIFO evicts.
                soc.insert(CacheItem(key, rng.choice((60, 300, 900))))
            elif roll < 0.70:
                soc.invalidate(key)
            elif roll < 0.80:
                soc.delete(key)
            elif roll < 0.95:
                soc.lookup(key)
            elif roll < 0.98:
                soc._drop_bucket(rng.randrange(soc.num_buckets))
            else:
                dev.power_cut()
                dev.recover()
                soc.recover()
            if step % 50 == 0:
                self.check(soc)
        self.check(soc)
        assert soc.evictions > 0 and soc.item_count > 0

    def test_batched_moves_keep_the_memo(self, soc_env):
        soc, _, _ = soc_env
        by_bucket = {}
        for key in range(400):
            by_bucket.setdefault(soc.bucket_of(key), []).append(
                CacheItem(key, 700)
            )
        soc.insert_many_batched(list(by_bucket.values()))
        self.check(soc)
        assert soc.evictions > 0

    def test_lookup_of_absent_key_memoizes_nothing(self, soc_env):
        soc, _, _ = soc_env
        soc.insert(CacheItem(1, 100))
        for key in range(1000, 1200):
            soc.lookup(key)
        soc.invalidate(1)
        soc.lookup(1)  # the stale bloom may still say maybe
        assert soc._masks == {}

    def test_forgotten_mask_is_recomputed(self, soc_env):
        soc, _, _ = soc_env
        for key in range(200):
            soc.insert(CacheItem(key, 100))
        buckets = range(soc.num_buckets)
        fields = [bloom_a_lookup_reads(soc, b) for b in buckets]
        assert any(fields)
        # The masks are the key index now, so the one place that may
        # forget them is recover(): it clears the index and refills it
        # from the masks packed in the bucket manifests.
        soc.recover()
        assert [bloom_a_lookup_reads(soc, b) for b in buckets] == fields
        assert soc.item_count == 200
        self.check(soc)


class TestBatchedRewritesOfOneBucket:
    """Two groups of one ``insert_many_batched`` call that name the same
    bucket go down as one rewrite: a failed rewrite of the bucket leaves
    its page as it was, so nothing the engine dropped can come back."""

    @staticmethod
    def two_keys_of_one_bucket(soc):
        first = {}
        for key in range(10_000):
            bucket = soc.bucket_of(key)
            if bucket in first:
                return first[bucket], key
            first[bucket] = key
        raise AssertionError("no two keys share a bucket")

    def test_a_failed_rewrite_cannot_resurrect_a_deleted_key(self, fdp_ssd):
        cache = HybridCache(fdp_ssd, small_config())
        soc = cache.soc
        k1, k2 = self.two_keys_of_one_bucket(soc)
        real_write = cache.io.write
        failures = [1]

        def write_failing_once(lba, *args, **kwargs):
            if failures[0]:
                failures[0] -= 1
                raise ProgramFailError("scripted", lba=lba)
            return real_write(lba, *args, **kwargs)

        cache.io.write = write_failing_once
        admitted, _ = soc.insert_many_batched(
            [[CacheItem(k1, 100)], [CacheItem(k2, 100)]]
        )
        del cache.io.write
        # Both items were staged, and both went with the failed rewrite.
        assert admitted == 2 and failures == [0]
        assert not soc.contains(k1) and not soc.contains(k2)
        page = fdp_ssd.read_payload(soc.base_lba + soc.bucket_of(k1))[0]
        writes, drops = soc.flash_writes, soc.write_drops
        cache.delete(k1)  # not resident: no rewrite
        fdp_ssd.power_cut()
        cache.recover()
        assert not soc.contains(k1) and cache.get(k1).where == MISS
        # One rewrite was issued, it failed, and the page kept nothing.
        assert (page, writes, drops) == (None, 0, 2)

    def test_groups_of_one_bucket_merge_in_order(self, soc_env):
        soc, _, dev = soc_env
        k1, k2 = self.two_keys_of_one_bucket(soc)
        admitted, _ = soc.insert_many_batched(
            [[CacheItem(k1, 100)], [CacheItem(k2, 200), CacheItem(k1, 300)]]
        )
        assert admitted == 3 and soc.flash_writes == 1
        assert dev.stats.host_pages_written == 1
        assert soc.resident_items() == {k2: 200, k1: 300}
        check_index(soc, keys=(k1, k2))


class TestWarmRestartAfterReplay:
    """A real replay, a power cut and ``HybridCache.recover``: every
    bucket comes back as its last rewrite's manifest said (each key's
    size, the bucket's ``_used``, the bloom's answer), which pins the
    packed manifest format from the rewrite to the recovered engine."""

    def test_recovered_buckets_match_their_last_rewrite(self):
        cache = build_experiment(fdp=True, utilization=0.9)
        soc = cache.soc
        admitted = {}  # key -> size at its latest SOC admission
        insert = soc.insert

        def recording_insert(item, now_ns=0):
            admitted[item.key] = item.size
            return insert(item, now_ns)

        soc.insert = recording_insert
        trace = make_trace(
            "kvcache", cache.config.nvm_bytes, DEFAULT_SCALE, num_ops=20_000, seed=3
        )
        CacheBench().run(cache, trace)
        del soc.insert
        # Each bucket's last rewrite: the keys its page's header lists.
        # A key's entry is its latest admission, which rewrote this bucket.
        pages = cache.device.read_payload(soc.base_lba, soc.num_buckets)
        last = {b: list(page[3]) for b, page in enumerate(pages) if page is not None}
        assert soc.evictions and len(last) > soc.num_buckets // 2

        cache.device.power_cut()
        report = cache.recover()
        assert report["soc"]["buckets_recovered"] == len(last)
        assert report["soc"]["items_recovered"] == sum(map(len, last.values()))
        expected = {key: admitted[key] for keys in last.values() for key in keys}
        assert soc.resident_items() == expected
        for bucket in range(soc.num_buckets):
            keys = last.get(bucket, [])
            assert soc._used[bucket] == sum(
                admitted[key] + ITEM_HEADER_BYTES for key in keys
            )
            assert bloom_a_lookup_reads(soc, bucket) == eager_bloom(keys)
        for key in list(expected)[::50]:
            item, _ = soc.lookup(key)
            assert item == CacheItem(key, expected[key])
        check_index(soc, keys=list(expected)[:200])
