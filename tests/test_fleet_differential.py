"""Differential arm: a 1-shard fleet is bit-identical to a bare cache.

The fleet layer (router, breakers, shadow map, monitor hooks) must be
pure orchestration: with one shard and no failures it may not perturb
a single device state transition relative to driving the same
:class:`~repro.cache.hybrid.HybridCache` directly with
:class:`~repro.bench.driver.CacheBench`.  Same trace, same closed-loop
clock arithmetic (think time + bounded backlog), same fill-on-miss
policy — then every observable surface of the two devices must match
exactly, down to the L2P table and the journal buffer.

Reuses the device-surface comparator from the batched-I/O differential
harness (tests/test_differential_batch.py) so any surface added there
is automatically enforced here too.
"""

from __future__ import annotations

import pytest

from repro.bench.driver import CacheBench, ReplayConfig
from repro.bench.runner import Scale, build_experiment, make_trace
from repro.fleet import (
    FleetCache,
    FleetDriver,
    FleetReplayConfig,
    ShardSpec,
)
from tests.test_differential_batch import assert_identical

TINY = Scale(num_superblocks=32, num_ops=4_000)
UTILIZATION = 0.9


def _trace(seed):
    nvm = int(TINY.geometry().logical_bytes * UTILIZATION)
    return make_trace("kvcache", nvm, TINY, num_ops=4_000, seed=seed)


def _bare_run(fdp, trace):
    cache = build_experiment(
        fdp=fdp, utilization=UTILIZATION, scale=TINY, sched=True
    )
    result = CacheBench(ReplayConfig()).run(cache, trace)
    return cache, result


def _fleet_run(fdp, trace):
    shard = ShardSpec(
        "solo",
        backend="fdp" if fdp else "nonfdp",
        utilization=UTILIZATION,
        scale=TINY,
    ).build()
    fleet = FleetCache([shard])
    result = FleetDriver(fleet, FleetReplayConfig()).run(trace)
    return shard, fleet, result


@pytest.mark.parametrize("fdp", [False, True])
@pytest.mark.parametrize("seed", [13, 2026])
def test_single_shard_fleet_bit_identical_to_bare_cache(fdp, seed):
    trace = _trace(seed)
    bare_cache, bare_result = _bare_run(fdp, trace)
    shard, fleet, fleet_result = _fleet_run(fdp, trace)
    fleet_cache = shard.backend.cache

    # Device state: every observable surface, exact.
    assert_identical(bare_cache.device, fleet_cache.device)

    # Cache-level counters and residency.
    assert fleet_cache.gets == bare_cache.gets
    assert fleet_cache.sets == bare_cache.sets
    assert fleet_cache.deletes == bare_cache.deletes
    assert fleet_cache.nvm_gets == bare_cache.nvm_gets
    assert fleet_cache.hits_by_layer == bare_cache.hits_by_layer
    assert fleet_cache.app_set_bytes == bare_cache.app_set_bytes
    assert fleet_cache.resident_items() == bare_cache.resident_items()

    # Replay accounting: the fleet saw the same traffic and outcomes.
    assert fleet_result.ops == len(trace)
    assert fleet_result.degraded_misses == 0
    assert fleet_result.retries == 0
    assert fleet.hit_ratio == pytest.approx(
        sum(bare_cache.hits_by_layer.values()) / bare_cache.gets
    )
    # The closed-loop clocks advanced identically.
    assert shard.clock_ns > 0
    assert (
        fleet_cache.device.ftl.latency.busy_until
        == bare_cache.device.ftl.latency.busy_until
    )

    # And the shadow map agrees with reality (placement audit clean).
    audit = fleet.verify_placement()
    assert audit["misplaced"] == 0
    assert audit["duplicates"] == 0
    assert audit["shadow_mismatches"] == 0


# ----------------------------------------------------------------------
# open loop: the fixed-interval arrival clock belongs to the driver's
# op count, not to a run() call or a poll window
# ----------------------------------------------------------------------


def _open_loop_fleet(slices, poll_interval_ops):
    shards = [
        ShardSpec(
            f"s{i}", backend=backend, utilization=UTILIZATION, scale=TINY
        ).build()
        for i, backend in enumerate(("fdp", "nonfdp"))
    ]
    fleet = FleetCache(shards)
    driver = FleetDriver(
        fleet,
        FleetReplayConfig(
            arrival_interval_ns=50_000, poll_interval_ops=poll_interval_ops
        ),
    )
    trace = _trace(404)
    results = [driver.run(trace.slice(lo, hi)) for lo, hi in slices]
    assert driver.ops_done == len(trace)
    return fleet, results


@pytest.mark.parametrize(
    "slices, poll_interval_ops",
    [
        ([(0, 1500), (1500, 1501), (1501, 4000)], 2000),
        ([(0, 4000)], 700),
        ([(0, 1), (1, 2999), (2999, 4000)], 1),
    ],
)
def test_open_loop_slices_and_poll_cadence_do_not_move_the_replay(
    slices, poll_interval_ops
):
    """perfbench replays ``fleet4_open`` one 50k-op slice per ``run()``:
    op *n* of the driver's life arrives at ``n * interval`` whichever
    slice or poll window it falls in."""
    whole, (whole_result,) = _open_loop_fleet([(0, 4000)], 2000)
    parts, results = _open_loop_fleet(slices, poll_interval_ops)
    for shard_id, shard in whole.shards.items():
        other = parts.shards[shard_id]
        assert_identical(shard.backend.cache.device, other.backend.cache.device)
        assert other.clock_ns == shard.clock_ns
        for op in ("read", "write"):
            assert (
                other.merged_histogram(op).to_dict()
                == shard.merged_histogram(op).to_dict()
            )
    assert parts.stats_dict() == whole.stats_dict()
    for field in ("ops", "gets", "hits", "misses", "sets", "applied_sets"):
        assert sum(getattr(r, field) for r in results) == getattr(
            whole_result, field
        )
    # One service-quality sample per poll window, the last one short.
    assert [len(r.interval_series) for r in results] == [
        -(-(hi - lo) // poll_interval_ops) for lo, hi in slices
    ]
    assert results[-1].interval_series[-1].ops == 4000
