"""Property-based tests for the Kangaroo engine and the ZNS host log."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cache import CacheItem
from repro.cache.kangaroo import KangarooCache
from repro.core import FdpAwareDevice
from repro.ssd import Geometry, SimulatedSSD
from repro.ssd.zns import ZnsHostLog, ZonedSSD

GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=4,
    planes_per_die=2,
    dies=2,
    num_superblocks=48,
    op_fraction=0.15,
)

common = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

kangaroo_op = st.tuples(
    st.sampled_from(["insert", "lookup", "invalidate", "delete"]),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=50, max_value=1500),
)


def build_kangaroo():
    device = SimulatedSSD(GEOMETRY, fdp=True)
    layer = FdpAwareDevice(device)
    return (
        KangarooCache(
            layer,
            layer.allocator.allocate("log"),
            layer.allocator.allocate("set"),
            base_lba=0,
            num_log_pages=6,
            num_buckets=32,
            move_threshold=2,
        ),
        device,
    )


class TestKangarooProperties:
    @given(ops=st.lists(kangaroo_op, max_size=250))
    @common
    def test_lookup_matches_shadow_within_capacity_losses(self, ops):
        """Whatever the engine reports present must carry the latest
        value; absence is allowed (drops/evictions), staleness is not."""
        cache, device = build_kangaroo()
        shadow = {}
        for op, key, size in ops:
            if op == "insert":
                admitted, _ = cache.insert(CacheItem(key, size))
                if admitted:
                    shadow[key] = size
            elif op == "lookup":
                item, _ = cache.lookup(key)
                if item is not None:
                    assert shadow.get(key) == item.size
            elif op == "invalidate":
                cache.invalidate(key)
                shadow.pop(key, None)
            else:
                cache.delete(key)
                shadow.pop(key, None)
        device.check_invariants()

    @given(ops=st.lists(kangaroo_op, max_size=250))
    @common
    def test_item_conservation(self, ops):
        """moved + dropped + resident <= inserted (no duplication)."""
        cache, _ = build_kangaroo()
        for op, key, size in ops:
            if op == "insert":
                cache.insert(CacheItem(key, size))
            elif op == "invalidate":
                cache.invalidate(key)
            elif op == "delete":
                cache.delete(key)
        assert (
            cache.moved_items + cache.dropped_items <= cache.log_inserts
        )
        assert len(cache._log_index) <= cache.log_inserts

    @given(keys=st.lists(st.integers(min_value=0, max_value=50), max_size=120))
    @common
    def test_latest_insert_wins(self, keys):
        cache, _ = build_kangaroo()
        latest = {}
        for i, key in enumerate(keys):
            size = 100 + i  # unique size per insert
            cache.insert(CacheItem(key, size))
            latest[key] = size
        for key, size in latest.items():
            item, _ = cache.lookup(key)
            if item is not None:
                assert item.size == size


zns_op = st.tuples(
    st.sampled_from(["put", "check"]),
    st.integers(min_value=0, max_value=400),
)


class TestZnsHostLogProperties:
    @given(ops=st.lists(zns_op, max_size=400))
    @common
    def test_log_agrees_with_shadow(self, ops):
        device = ZonedSSD(GEOMETRY)
        log = ZnsHostLog(device, reserve_zones=2)
        shadow = set()
        for op, key in ops:
            if op == "put":
                log.put(key)
                shadow.add(key)
            else:
                assert (key in log._key_page) == (key in shadow)
        assert set(log._key_page) == shadow
        # Every mapped page holds its key.
        assert all(log._page_key[lba] == key for key, lba in log._key_page.items())
        # The device never amplified anything.
        assert device.dlwa == 1.0

    @given(ops=st.lists(zns_op, max_size=400))
    @common
    def test_host_waf_at_least_one(self, ops):
        device = ZonedSSD(GEOMETRY)
        log = ZnsHostLog(device)
        for op, key in ops:
            if op == "put":
                log.put(key)
        assert log.host_waf >= 1.0
        # Mapping is one-to-one.
        assert len(log._key_page) == len(log._page_key)
