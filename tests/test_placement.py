"""Unit tests for placement handles, the allocator, and policies."""

import pytest

from repro.core import (
    DEFAULT_HANDLE,
    DynamicTemperaturePolicy,
    PlacementHandleAllocator,
    SingleHandlePolicy,
    StaticSegregationPolicy,
)
from repro.fdp import PlacementIdentifier


def pids(n, rg=0):
    return [PlacementIdentifier(rg, i) for i in range(n)]


class TestAllocator:
    def test_allocates_distinct_pids(self):
        alloc = PlacementHandleAllocator(pids(4))
        a = alloc.allocate("soc")
        b = alloc.allocate("loc")
        assert a.pid != b.pid
        assert not a.is_default and not b.is_default

    def test_reserves_default_ruh(self):
        alloc = PlacementHandleAllocator(pids(4))
        handles = [alloc.allocate(f"c{i}") for i in range(3)]
        assert all(h.pid.ruh_id != 0 for h in handles)

    def test_exhaustion_falls_back_to_default(self):
        alloc = PlacementHandleAllocator(pids(2))  # 1 usable after reserve
        first = alloc.allocate("a")
        second = alloc.allocate("b")
        assert not first.is_default
        assert second.is_default
        assert alloc.exhausted_allocations == 1

    def test_disabled_placement_gives_default(self):
        alloc = PlacementHandleAllocator(pids(8), enable_placement=False)
        assert alloc.allocate("soc") is DEFAULT_HANDLE
        assert not alloc.placement_enabled

    def test_no_pids_gives_default(self):
        alloc = PlacementHandleAllocator([])
        assert alloc.allocate("soc") is DEFAULT_HANDLE

    def test_default_method(self):
        assert PlacementHandleAllocator(pids(4)).default() is DEFAULT_HANDLE

    def test_allocated_list_tracks_bound_handles(self):
        alloc = PlacementHandleAllocator(pids(4))
        alloc.allocate("a")
        alloc.allocate("b")
        assert [h.name for h in alloc.allocated] == ["a", "b"]


class TestStaticPolicy:
    def test_one_handle_per_consumer(self):
        policy = StaticSegregationPolicy()
        alloc = PlacementHandleAllocator(pids(8))
        policy.setup(alloc, ["soc", "loc"])
        assert policy.handle_for("soc").pid != policy.handle_for("loc").pid

    def test_stable_across_calls(self):
        policy = StaticSegregationPolicy()
        policy.setup(PlacementHandleAllocator(pids(8)), ["soc"])
        assert policy.handle_for("soc") is policy.handle_for("soc")

    def test_unknown_consumer_raises(self):
        policy = StaticSegregationPolicy()
        policy.setup(PlacementHandleAllocator(pids(8)), ["soc"])
        with pytest.raises(KeyError):
            policy.handle_for("nope")


class TestSingleHandlePolicy:
    def test_all_consumers_share(self):
        policy = SingleHandlePolicy()
        policy.setup(PlacementHandleAllocator(pids(8)), ["soc", "loc"])
        assert policy.handle_for("soc") is policy.handle_for("loc")

    def test_use_before_setup_raises(self):
        with pytest.raises(RuntimeError):
            SingleHandlePolicy().handle_for("soc")


class TestDynamicTemperaturePolicy:
    def test_starts_everything_cold(self):
        policy = DynamicTemperaturePolicy(epoch_bytes=1000)
        policy.setup(PlacementHandleAllocator(pids(8)), ["a", "b"])
        assert policy.handle_for("a") is policy.handle_for("b")

    def test_rebuckets_hot_consumer(self):
        policy = DynamicTemperaturePolicy(epoch_bytes=1000)
        policy.setup(PlacementHandleAllocator(pids(8)), ["hot", "cold"])
        for _ in range(20):
            policy.on_write("hot", 100)
        policy.on_write("cold", 1)
        assert policy.handle_for("hot") is not policy.handle_for("cold")

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            DynamicTemperaturePolicy(epoch_bytes=0)

    def test_unknown_consumer_raises(self):
        policy = DynamicTemperaturePolicy()
        policy.setup(PlacementHandleAllocator(pids(8)), ["a"])
        with pytest.raises(KeyError):
            policy.handle_for("zzz")
