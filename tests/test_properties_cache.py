"""Property-based tests for cache data structures and the model."""

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import BloomFilter, CacheItem, DramCache
from repro.cache.dram import DRAM_ITEM_OVERHEAD
from repro.model import average_live_migration, dlwa_fdp

common = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBloomProperties:
    @given(keys=st.lists(st.integers(min_value=0), max_size=40))
    @common
    def test_never_false_negative(self, keys):
        bf = BloomFilter(bits=128, hashes=4)
        for k in keys:
            bf.add(k)
        assert all(bf.may_contain(k) for k in keys)

    @given(
        keys=st.lists(st.integers(min_value=0), max_size=40),
        probe=st.integers(min_value=0),
    )
    @common
    def test_rebuild_equivalent_to_fresh_build(self, keys, probe):
        rebuilt = BloomFilter(bits=128, hashes=4)
        rebuilt.add(probe)  # pre-existing state to be discarded
        rebuilt.rebuild(keys)
        fresh = BloomFilter(bits=128, hashes=4)
        for k in keys:
            fresh.add(k)
        assert rebuilt.may_contain(probe) == fresh.may_contain(probe)


class TestDramProperties:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["set", "get", "del"]),
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=1, max_value=400),
            ),
            max_size=300,
        )
    )
    @common
    def test_capacity_never_exceeded_and_shadow_agrees(self, ops):
        capacity = 10 * (200 + DRAM_ITEM_OVERHEAD)
        cache = DramCache(capacity)
        shadow = {}
        for op, key, size in ops:
            if op == "set":
                cache.set(CacheItem(key, size))
                if size + DRAM_ITEM_OVERHEAD <= capacity:
                    shadow[key] = size
                else:
                    shadow.pop(key, None)
            elif op == "get":
                cache.get(key)
            else:
                cache.delete(key)
                shadow.pop(key, None)
            assert cache.used_bytes <= capacity
            # Recompute used bytes from scratch.
            expected = sum(
                s + DRAM_ITEM_OVERHEAD
                for s in cache.resident_items().values()
            )
            assert cache.used_bytes == expected
        # Whatever the cache holds must be a subset of the shadow's
        # most-recent sizes (evictions may have removed entries).
        for key in cache.resident_items():
            assert cache.peek(key).size == shadow[key]


class TestModelProperties:
    @given(r=st.floats(min_value=0.01, max_value=0.99))
    @common
    def test_delta_in_unit_interval(self, r):
        delta = average_live_migration(r, 1.0)
        assert 0.0 <= delta < 1.0

    @given(r=st.floats(min_value=0.01, max_value=0.99))
    @common
    def test_delta_solves_defining_equation(self, r):
        delta = average_live_migration(r, 1.0)
        if delta > 0:
            assert math.isclose(
                (delta - 1) / math.log(delta), r, rel_tol=1e-6
            )

    @given(
        r1=st.floats(min_value=0.01, max_value=0.98),
        bump=st.floats(min_value=0.001, max_value=0.01),
    )
    @common
    def test_dlwa_monotone_nondecreasing(self, r1, bump):
        assert dlwa_fdp(r1 + bump, 1.0) >= dlwa_fdp(r1, 1.0)

    @given(
        scale=st.floats(min_value=0.1, max_value=1000.0),
        r=st.floats(min_value=0.05, max_value=0.95),
    )
    @common
    def test_dlwa_scale_free(self, scale, r):
        # Theorem 1 depends only on the ratio S_soc / S_psoc — the
        # property the scaled-down reproduction relies on.
        assert math.isclose(
            dlwa_fdp(r * scale, scale), dlwa_fdp(r, 1.0), rel_tol=1e-9
        )
