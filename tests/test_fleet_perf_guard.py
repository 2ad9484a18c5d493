"""Count-based guards on what the serving path spends per op.

No wall clock (these pass the sim-time lint's spirit and cannot
flake): the counts below are the *mechanisms* behind ``fleet4_open``'s
host throughput — a key is hashed onto the ring once however often it
is routed, and a synchronous I/O is timed where it is issued, without
a completion-queue ``IoCompletion`` and within a fixed number of calls
of the unscheduled I/O — so a
change that quietly reintroduces a per-op SHA-256 or a queue
round-trip fails here, in tier-1, before any benchmark runs.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.bench.runner import Scale, make_trace
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
# write's channel both before and after it, 8 to a write (a read: 7).
MAX_SCHED_EVENTS = 7


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
    """sys.setprofile call events (Python frames and C calls) in ``fn()``."""
    events = [0]

    def profiler(frame, event, arg):
        if event == "call" or event == "c_call":
            events[0] += 1

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
