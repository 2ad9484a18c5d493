"""Count-based guards on what the serving path spends per op.

No wall clock (these pass the sim-time lint's spirit and cannot
flake): the counts below are the *mechanisms* behind ``fleet4_open``'s
host throughput — a key is hashed onto the ring once however often it
is routed, a fleet op crosses router, ring and shard once each on its
way to the cache, and a synchronous I/O is timed where it is issued,
without a completion-queue ``IoCompletion`` and within a fixed number
of calls of the unscheduled I/O — so a change that quietly
reintroduces a per-op SHA-256, an adapter frame or a queue round-trip
fails here, in tier-1, before any benchmark runs.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.bench.driver import collector_paused
from repro.bench.runner import Scale, make_trace
from repro.cache import HybridCache
from repro.core import FdpAwareDevice
from repro.fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    FleetReplayConfig,
    ShardSpec,
    hashring,
)
from repro.ssd import Geometry, SimulatedSSD, sched

SCALE = Scale(num_superblocks=32, num_ops=5_000)
BACKENDS = ("fdp", "nonfdp", "fdp", "nonfdp")
VNODES = 64

# What the scheduler overlay may add to one 1-page sync I/O, in
# sys.setprofile call events.  A queue round-trip (submit + poll + a
# completion record) added 39 to a write and 37 to a read; timing a
# write's channel both before and after it, 8 to a write (a read: 7);
# finding the channel in one frame, 6 to either.
MAX_SCHED_EVENTS = 6

# What the fleet path (driver-facing router, ring, shard) may add above
# HybridCache.get_where/set, in sys.setprofile call events (Python
# frames + C calls).  With a routing helper, an adapter frame per shard
# op and a dataclass result per op: 10, 27 and 9.
MAX_FLEET_EVENTS = {"dram_hit_get": 8, "missed_get_and_fill": 23, "overwrite_set": 7}


def test_one_digest_per_distinct_key_and_no_queue_objects_per_sync_io(
    monkeypatch,
):
    digests = {"key": 0, "vnode": 0}
    real_h64 = hashring._h64

    def counting_h64(data: str) -> int:
        digests[data.split(":")[1]] += 1
        return real_h64(data)

    built = {"completion": 0}
    sync_ios = {"write": 0, "read": 0}

    def counting(op):
        real = getattr(FdpAwareDevice, op)

        def io(self, *args, **kwargs):
            sync_ios[op] += 1
            return real(self, *args, **kwargs)

        return io

    class CountingCompletion(sched.IoCompletion):
        __slots__ = ()

        def __init__(self, *fields) -> None:
            built["completion"] += 1
            super().__init__(*fields)

    monkeypatch.setattr(hashring, "_h64", counting_h64)
    monkeypatch.setattr(sched, "IoCompletion", CountingCompletion)
    for op in sync_ios:
        monkeypatch.setattr(FdpAwareDevice, op, counting(op))

    shards = [
        ShardSpec(f"shard{i:02d}", backend=b, utilization=0.9, scale=SCALE).build()
        for i, b in enumerate(BACKENDS)
    ]
    fleet = FleetCache(shards, FleetConfig(vnodes=VNODES, ring_seed=14))
    # The live ring and the every-shard-ever ring, hashed once each.
    assert digests == {"key": 0, "vnode": 2 * len(shards) * VNODES}

    nvm = int(SCALE.geometry().logical_bytes * 0.9) * len(shards)
    trace = make_trace("kvcache", nvm, SCALE, num_ops=5_000, seed=14)
    driver = FleetDriver(fleet, FleetReplayConfig(arrival_interval_ns=100_000))
    for lo in range(0, len(trace), 1_250):  # sliced, as perfbench replays
        driver.run(trace.slice(lo, lo + 1_250))

    assert fleet.ops > len(trace)  # fills re-route their key: more ops...
    assert digests["key"] == len(np.unique(trace.keys))  # ...no more digests
    assert digests["vnode"] == 2 * len(shards) * VNODES

    host_commands = sum(
        shard.backend.cache.device.scheduler.host_commands for shard in shards
    )
    assert sync_ios["write"] > 0 and sync_ios["read"] > 0
    assert sum(sync_ios.values()) == host_commands  # every sync I/O was timed...
    assert built == {"completion": 0}  # ...and never queued
    assert all(
        shard.backend.cache.device.scheduler.outstanding() == 0 for shard in shards
    )


def _call_events(fn) -> int:
    """sys.setprofile call events (Python frames and C calls) in ``fn()``,
    with the collector paused: a pass would count ``gc.callbacks`` hooks."""
    events = [0]

    def profiler(frame, event, arg):
        if event == "call" or event == "c_call":
            events[0] += 1

    with collector_paused():
        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
    return events[0]


def _one_page_costs(scheduled: bool):
    """(write, read) call events of one 1-page sync I/O through the
    device layer, on a warm device and an existing queue."""
    ssd = SimulatedSSD(Geometry(num_superblocks=32), fdp=True, sched=scheduled)
    io = FdpAwareDevice(ssd)
    handle = io.allocator.allocate("soc")
    now = 0
    for lba in range(64):
        now = io.write(lba, 1, handle, now, "soc")
        _, now = io.read(lba, 1, now, "soc")
    write = _call_events(lambda: io.write(100, 1, handle, now, "soc"))
    read = _call_events(lambda: io.read(100, 1, now, "soc"))
    return write, read


def test_scheduled_sync_io_costs_at_most_ten_calls_more():
    plain_write, plain_read = _one_page_costs(scheduled=False)
    sched_write, sched_read = _one_page_costs(scheduled=True)
    assert sched_write - plain_write <= MAX_SCHED_EVENTS, (sched_write, plain_write)
    assert sched_read - plain_read <= MAX_SCHED_EVENTS, (sched_read, plain_read)


def _events_above_the_cache(fn) -> int:
    """Call events of ``fn()`` outside HybridCache.get_where/set (their
    own call counts; what they call does not), not counting ``fn``'s
    own frame or the profiler's removal."""
    cache_entries = {HybridCache.get_where.__code__, HybridCache.set.__code__}
    events = [-2]
    inside = [None]

    def profiler(frame, event, arg):
        if inside[0] is not None:
            if event == "return" and frame is inside[0]:
                inside[0] = None
        elif event == "call" or event == "c_call":
            events[0] += 1
            if event == "call" and frame.f_code in cache_entries:
                inside[0] = frame

    with collector_paused():
        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
    return events[0]


def test_a_fleet_op_crosses_each_layer_once():
    shard = ShardSpec("s0", backend="fdp", utilization=0.9, scale=SCALE).build()
    fleet = FleetCache([shard], FleetConfig(vnodes=VNODES))
    now = 0
    for key in range(200):
        fleet.set(key, 100, now)
        now += 100_000
    cache = shard.backend.cache
    dram_hits = cache.hits_by_layer["dram"]

    def missed_get_and_fill():  # what FleetDriver.run does for a miss
        result = fleet.get(10**9, now)
        assert result.where == "miss" and not result.degraded
        assert fleet.set(10**9, 100, result.completion_ns).applied

    events = {
        "dram_hit_get": _events_above_the_cache(lambda: fleet.get(199, now)),
        "missed_get_and_fill": _events_above_the_cache(missed_get_and_fill),
        "overwrite_set": _events_above_the_cache(lambda: fleet.set(199, 100, now)),
    }
    assert cache.hits_by_layer["dram"] == dram_hits + 1
    for case, bound in MAX_FLEET_EVENTS.items():
        assert events[case] <= bound, (case, events[case])
