"""Unit tests for the DRAM LRU cache."""

import copy
import dataclasses
import pickle

import pytest

from repro.cache import CacheItem, DramCache
from repro.cache.dram import DRAM_ITEM_OVERHEAD


def make(capacity_items=10, item_size=100):
    cap = capacity_items * (item_size + DRAM_ITEM_OVERHEAD)
    return DramCache(cap), item_size


class TestBasics:
    def test_get_miss(self):
        cache, _ = make()
        assert cache.get(1) is None
        assert cache.misses == 1

    def test_set_then_get(self):
        cache, size = make()
        cache.set(CacheItem(1, size))
        item = cache.get(1)
        assert item == CacheItem(1, size)
        assert cache.hits == 1

    def test_overwrite_updates_size(self):
        cache, _ = make()
        cache.set(CacheItem(1, 100))
        cache.set(CacheItem(1, 50))
        assert cache.get(1).size == 50
        assert len(cache) == 1

    def test_delete(self):
        cache, size = make()
        cache.set(CacheItem(1, size))
        assert cache.delete(1)
        assert not cache.delete(1)
        assert cache.get(1) is None

    def test_contains(self):
        cache, size = make()
        cache.set(CacheItem(9, size))
        assert 9 in cache
        assert 10 not in cache

    def test_peek_does_not_promote_or_count(self):
        cache, size = make(capacity_items=2)
        cache.set(CacheItem(1, size))
        cache.set(CacheItem(2, size))
        cache.peek(1)
        cache.set(CacheItem(3, size))  # evicts LRU
        assert cache.get(1) is None  # peek did not promote 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            DramCache(0)


class TestEviction:
    def test_lru_order(self):
        cache, size = make(capacity_items=3)
        for k in (1, 2, 3):
            cache.set(CacheItem(k, size))
        cache.get(1)  # promote 1
        evicted = cache.set(CacheItem(4, size))
        assert [e.key for e in evicted] == [2]

    def test_eviction_returns_items(self):
        cache, size = make(capacity_items=2)
        cache.set(CacheItem(1, size))
        cache.set(CacheItem(2, size))
        evicted = cache.set(CacheItem(3, size))
        assert evicted and evicted[0].key == 1

    def test_used_bytes_tracks(self):
        cache, size = make(capacity_items=4)
        for k in range(4):
            cache.set(CacheItem(k, size))
        assert cache.used_bytes == 4 * (size + DRAM_ITEM_OVERHEAD)
        cache.delete(0)
        assert cache.used_bytes == 3 * (size + DRAM_ITEM_OVERHEAD)

    def test_oversized_item_bypasses(self):
        cache = DramCache(1000)
        big = CacheItem(1, 5000)
        evicted = cache.set(big)
        assert evicted == [big]
        assert 1 not in cache

    def test_oversized_overwrite_drops_the_resident_copy(self):
        cache = DramCache(1000)
        cache.set(CacheItem(1, 100))
        cache.set(CacheItem(2, 100))
        big = CacheItem(1, 5000)
        assert cache.set(big) == [big]
        # The older, smaller version must not stay behind to be served.
        assert 1 not in cache
        assert cache.get(1) is None
        assert cache.used_bytes == 100 + DRAM_ITEM_OVERHEAD
        assert cache.evictions == 1

    def test_multi_eviction_for_large_insert(self):
        cache = DramCache(10 * (100 + DRAM_ITEM_OVERHEAD))
        for k in range(10):
            cache.set(CacheItem(k, 100))
        evicted = cache.set(CacheItem(99, 500))
        assert len(evicted) >= 4

    def test_hit_ratio(self):
        cache, size = make()
        cache.set(CacheItem(1, size))
        cache.get(1)
        cache.get(2)
        assert cache.hit_ratio == 0.5


class TestKeepsTheItemsItWasGiven:
    """DRAM stores the (immutable) items themselves; every way out
    hands back a value equal to what went in."""

    def test_get_peek_and_eviction_return_what_was_set(self):
        cache, size = make(capacity_items=2)
        first, second, third = (CacheItem(k, size - k) for k in (1, 2, 3))
        assert len(cache.set(first)) == 0
        assert len(cache.set(second)) == 0
        for out, given in (
            (cache.peek(1), first),
            (cache.get(1), first),
            (cache.get(2), second),
        ):
            assert out == given and hash(out) == hash(given)
        evicted = cache.set(third)  # 1 is the LRU entry: get(2) came last
        assert list(evicted) == [first] and hash(evicted[0]) == hash(first)
        assert cache.peek(1) is None and cache.peek(3) == third

    def test_resident_items_maps_keys_to_plain_sizes(self):
        cache, size = make()
        cache.set(CacheItem(1, size))
        cache.set(CacheItem(2, 40))
        cache.set(CacheItem(1, 70))  # overwrite: newest size wins
        resident = cache.resident_items()
        assert resident == {2: 40, 1: 70}
        assert all(type(v) is int for v in resident.values())
        resident.clear()  # a snapshot, not the live index
        assert len(cache) == 2 and cache.used_bytes == 110 + 2 * DRAM_ITEM_OVERHEAD


class TestCacheItemValue:
    """CacheItem is a slots class now; the dataclass contract it had stays."""

    def test_equality_hash_repr(self):
        a, b = CacheItem(7, 100), CacheItem(7, 100)
        assert a == b and hash(a) == hash(b)
        assert a != CacheItem(7, 101) and a != CacheItem(8, 100)
        assert a != (7, 100)
        assert {a, b} == {a}
        assert repr(a) == "CacheItem(key=7, size=100)"
        assert a.stored_size == 100 + 24

    def test_immutable_and_dictless(self):
        item = CacheItem(7, 100)
        with pytest.raises(dataclasses.FrozenInstanceError):
            item.size = 5
        with pytest.raises(AttributeError):
            del item.key
        with pytest.raises(AttributeError):
            item.extra = 1
        assert not hasattr(item, "__dict__")

    @pytest.mark.parametrize("size", [0, -3])
    def test_rejects_non_positive_size(self, size):
        with pytest.raises(ValueError):
            CacheItem(1, size)

    def test_copy_and_pickle_round_trip(self):
        item = CacheItem(7, 100)
        assert pickle.loads(pickle.dumps(item)) == item
        assert copy.deepcopy(item) == item
