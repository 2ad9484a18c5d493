"""Count-based guards on what the serving path spends per op.

No wall clock (these pass the sim-time lint's spirit and cannot
flake): the counts below are the *mechanisms* behind ``fleet4_open``'s
host throughput — a key is hashed onto the ring once however often it
is routed, and a synchronous I/O completes through one
``IoCompletion`` — so a change that quietly reintroduces a per-op
SHA-256 or a throwaway completion object fails here, in tier-1, before
any benchmark runs.
"""

from __future__ import annotations

import numpy as np

from repro.bench.runner import Scale, make_trace
from repro.fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    FleetReplayConfig,
    ShardSpec,
    hashring,
)
from repro.ssd import sched

SCALE = Scale(num_superblocks=32, num_ops=5_000)
BACKENDS = ("fdp", "nonfdp", "fdp", "nonfdp")
VNODES = 64


def test_one_digest_per_distinct_key_and_one_completion_per_sync_io(
    monkeypatch,
):
    digests = {"key": 0, "vnode": 0}
    real_h64 = hashring._h64

    def counting_h64(data: str) -> int:
        digests[data.split(":")[1]] += 1
        return real_h64(data)

    completions = [0]

    class CountingCompletion(sched.IoCompletion):
        __slots__ = ()

        def __init__(self, *fields) -> None:
            completions[0] += 1
            super().__init__(*fields)

    monkeypatch.setattr(hashring, "_h64", counting_h64)
    monkeypatch.setattr(sched, "IoCompletion", CountingCompletion)

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

    sync_ios = sum(
        queue.submitted
        for shard in shards
        for queue in shard.backend.cache.io._queues.values()
    )
    host_commands = sum(
        shard.backend.cache.device.scheduler.host_commands for shard in shards
    )
    assert sync_ios > 0
    assert completions[0] == sync_ios == host_commands
