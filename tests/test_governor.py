"""Load governor: state machine, admission gates, queue enrichment.

Covers the host-side overload-protection contract
(repro/fleet/governor.py and its shard/router/cache integration):

* HEALTHY → BROWNOUT → SHED escalation on backlog thresholds with
  dwell-ops hysteresis; de-escalation one state at a time;
* HEALTHY admission is stateless (the bit-identity guarantee);
  BROWNOUT meters SETs through a simulated-time token bucket; SHED
  drops all SETs and never touches GETs;
* the bounded retry budget replaces blind retries only under overload;
* brownout mode sheds LOC (large-object) flash admissions at the
  cache while small objects keep flowing;
* ``QueueFullError`` → ``ShardUnavailableError`` translation carries
  the saturated queue's name and depth, and per-queue rejection
  counts surface in shard and fleet stats.
"""

from __future__ import annotations

import pytest

from repro.cache.hybrid import BROWNOUT_HEALTHY, BROWNOUT_SHED_LOC
from repro.fleet import (
    FleetCache,
    FleetConfig,
    GovernorConfig,
    GovernorState,
    LoadGovernor,
    OverloadSignals,
    ShardSpec,
    ShardUnavailableError,
)
from repro.fleet.shard import CacheShard
from repro.ssd.errors import QueueFullError
from repro.ssd.sched import SchedConfig

CFG = GovernorConfig(
    brownout_backlog_ns=1_000,
    shed_backlog_ns=10_000,
    recover_backlog_ns=100,
    dwell_ops=4,
)


def _feed(gov, pressure_ns, times):
    for _ in range(times):
        gov.observe(0, OverloadSignals(backlog_ns=pressure_ns))


# ----------------------------------------------------------------------
# state machine
# ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="thresholds"):
        GovernorConfig(brownout_backlog_ns=10, shed_backlog_ns=5)
    with pytest.raises(ValueError, match="dwell"):
        GovernorConfig(dwell_ops=0)


def test_escalation_requires_dwell():
    gov = LoadGovernor(CFG)
    _feed(gov, 5_000, 3)  # dwell is 4: not yet
    assert gov.state is GovernorState.HEALTHY
    _feed(gov, 5_000, 1)
    assert gov.state is GovernorState.BROWNOUT
    assert gov.brownout_transitions == 1


def test_direct_escalation_to_shed():
    gov = LoadGovernor(CFG)
    _feed(gov, 50_000, 4)
    assert gov.state is GovernorState.SHED


def test_deescalation_steps_down_one_state_at_a_time():
    gov = LoadGovernor(CFG)
    _feed(gov, 50_000, 4)
    assert gov.state is GovernorState.SHED
    _feed(gov, 0, 4)
    assert gov.state is GovernorState.BROWNOUT  # not straight to HEALTHY
    _feed(gov, 0, 4)
    assert gov.state is GovernorState.HEALTHY
    assert [(a, b) for (_, a, b) in gov.transitions] == [
        ("healthy", "shed"),
        ("shed", "brownout"),
        ("brownout", "healthy"),
    ]


def test_hysteresis_band_holds_state():
    gov = LoadGovernor(CFG)
    _feed(gov, 5_000, 4)
    assert gov.state is GovernorState.BROWNOUT
    # Between recover (100) and brownout (1000): neither up nor down.
    _feed(gov, 500, 20)
    assert gov.state is GovernorState.BROWNOUT


# ----------------------------------------------------------------------
# admission gates
# ----------------------------------------------------------------------


def test_healthy_admission_is_stateless():
    gov = LoadGovernor(CFG)
    tokens = gov._tokens
    for now in range(100):
        assert gov.admit_set(now)
    assert gov._tokens == tokens
    assert gov.shed_sets == 0


def test_shed_drops_all_sets():
    gov = LoadGovernor(CFG)
    _feed(gov, 50_000, 4)
    assert not gov.admit_set(0)
    assert not gov.admit_set(10**9)
    assert gov.shed_sets == 2


def test_brownout_token_bucket_meters_on_simulated_time():
    cfg = GovernorConfig(
        brownout_backlog_ns=1_000,
        shed_backlog_ns=10_000,
        recover_backlog_ns=100,
        dwell_ops=1,
        set_tokens_per_ms=1.0,
        set_bucket_capacity=2.0,
    )
    gov = LoadGovernor(cfg)
    gov.observe(0, OverloadSignals(backlog_ns=5_000))
    assert gov.state is GovernorState.BROWNOUT
    # Bucket re-armed full (2 tokens) at entry; no time passes.
    assert gov.admit_set(0)
    assert gov.admit_set(0)
    assert not gov.admit_set(0)
    assert gov.shed_sets == 1
    # 1 simulated ms refills exactly one token.
    assert gov.admit_set(1_000_000)
    assert not gov.admit_set(1_000_000)
    # Refill is capped at bucket capacity.
    assert gov.admit_set(10**12)
    assert gov.admit_set(10**12)
    assert not gov.admit_set(10**12)


def test_retry_budget_only_bounds_overloaded_retries():
    cfg = GovernorConfig(
        brownout_backlog_ns=1_000,
        shed_backlog_ns=10_000,
        recover_backlog_ns=100,
        dwell_ops=1,
        retry_budget=2,
        retry_window_ops=1_000,
    )
    gov = LoadGovernor(cfg)
    for _ in range(50):
        assert gov.allow_retry()  # HEALTHY: unbounded, as before
    gov.observe(0, OverloadSignals(backlog_ns=5_000))
    assert gov.allow_retry()
    assert gov.allow_retry()
    assert not gov.allow_retry()
    assert gov.retry_budget_exhausted == 1
    # A new observation window replenishes the budget.
    _feed(gov, 5_000, 1_000)
    assert gov.allow_retry()


def test_counters_shape():
    gov = LoadGovernor(CFG)
    counters = gov.counters()
    assert counters == {
        "state": "healthy",
        "shed_sets": 0,
        "brownout_transitions": 0,
        "retry_budget_exhausted": 0,
    }


# ----------------------------------------------------------------------
# cache brownout mode
# ----------------------------------------------------------------------

TINY = dict(utilization=0.9)


def _shard(backend="fdp"):
    from repro.bench.runner import Scale

    return ShardSpec(
        "s0", backend=backend, scale=Scale(num_superblocks=32), **TINY
    ).build()


def test_cache_brownout_sheds_loc_admissions_only():
    # Large objects: DRAM evictions bound for the LOC are shed.
    shard = _shard()
    cache = shard.backend.cache
    large = cache.config.small_item_threshold * 4
    overflow = 2 * cache.config.dram_bytes // large
    cache.set_brownout_mode(BROWNOUT_SHED_LOC)
    for i in range(overflow):
        shard.set(10_000 + i, large)
    assert shard.backend.shed_loc_admissions >= 1
    assert cache.loc.item_count == 0

    # Small objects on a fresh shard: SOC-bound evictions still flow.
    shard2 = _shard()
    cache2 = shard2.backend.cache
    small = cache2.config.small_item_threshold // 2
    overflow2 = 2 * cache2.config.dram_bytes // small
    cache2.set_brownout_mode(BROWNOUT_SHED_LOC)
    for i in range(overflow2):
        shard2.set(20_000 + i, small)
    assert shard2.backend.shed_loc_admissions == 0
    assert cache2.flash_admits >= 1

    with pytest.raises(ValueError, match="unknown brownout mode"):
        cache.set_brownout_mode("panic")


def test_cache_stats_surface_brownout_counters():
    shard = _shard()
    stats = shard.backend.cache.stats_dict()
    assert stats["brownout_mode"] == BROWNOUT_HEALTHY
    assert stats["shed_loc_admissions"] == 0


# ----------------------------------------------------------------------
# shard + fleet integration
# ----------------------------------------------------------------------


def test_shard_sense_and_govern_flips_brownout_mode():
    shard = _shard()
    shard.attach_governor(LoadGovernor(CFG))
    # Far-future arrival times read the device backlog as zero; then
    # pin busy_until ahead of the clock so it reads huge.
    for _ in range(CFG.dwell_ops):
        shard.sense_and_govern(10**15)
    assert shard.backend.cache.brownout_mode == BROWNOUT_HEALTHY
    shard.backend.cache.device.ftl.latency.busy_until = 10**12
    for _ in range(CFG.dwell_ops):
        shard.sense_and_govern(0)  # busy_until - 0 >> shed threshold
    assert shard.governor.state is GovernorState.SHED
    assert shard.backend.cache.brownout_mode == BROWNOUT_SHED_LOC
    assert not shard.admit_set(0)
    # Recovery restores the healthy cache mode.
    for _ in range(4 * CFG.dwell_ops):
        shard.sense_and_govern(10**15)
    assert shard.governor.state is GovernorState.HEALTHY
    assert shard.backend.cache.brownout_mode == BROWNOUT_HEALTHY
    assert shard.admit_set(10**15)


def test_shard_without_governor_admits_everything():
    shard = _shard()
    assert shard.admit_set()
    assert shard.allow_retry()
    shard.sense_and_govern()  # no-op
    assert shard.stats_dict()["governor"] is None


def test_fleet_config_attaches_governor_to_every_shard():
    shards = [
        ShardSpec(f"s{i}", scale=_scale(), **TINY).build() for i in range(3)
    ]
    fleet = FleetCache(shards, FleetConfig(governor=CFG))
    for shard in fleet.shards.values():
        assert shard.governor is not None
        assert shard.governor.config is CFG
    counters = fleet.governor_counters()
    assert counters["shed_sets"] == 0
    assert set(counters["states"]) == {"s0", "s1", "s2"}


def _scale():
    from repro.bench.runner import Scale

    return Scale(num_superblocks=32)


def test_fleet_governor_sheds_sets_without_counting_drops():
    shards = [
        ShardSpec(f"s{i}", scale=_scale(), **TINY).build() for i in range(2)
    ]
    fleet = FleetCache(shards, FleetConfig(governor=CFG))
    # Force every governor into SHED.
    for shard in fleet.shards.values():
        _feed(shard.governor, 10**9, CFG.dwell_ops)
    result = fleet.set(42, 4096)
    assert not result.applied
    counters = fleet.governor_counters()
    assert counters["shed_sets"] == 1
    # A governor shed is not a routing drop: the shadow map and
    # dropped_sets (no-live-owner accounting) stay untouched.
    assert fleet.dropped_sets == 0
    stats = fleet.stats_dict()
    assert stats["governor"]["shed_sets"] == 1


# ----------------------------------------------------------------------
# queue enrichment (QueueFullError → ShardUnavailableError)
# ----------------------------------------------------------------------


def test_queue_full_error_carries_queue_and_depth():
    exc = QueueFullError("soc full", queue="soc_write", depth=64)
    assert exc.queue == "soc_write"
    assert exc.depth == 64


def test_scheduler_raise_site_tags_queue():
    from repro.ssd.sched import MultiQueueScheduler

    sched = MultiQueueScheduler(SchedConfig(queue_depth=1))
    sched.submit("soc_read", "read", lba=0, npages=1, channel=0, now_ns=0)
    with pytest.raises(QueueFullError) as info:
        sched.submit("soc_read", "read", lba=1, npages=1, channel=0, now_ns=0)
    assert info.value.queue == "soc_read"
    assert info.value.depth == 1


def test_shard_translation_preserves_queue_identity():
    shard = CacheShard("s9", backend=None)
    err = shard._translate(
        "set", QueueFullError("loc_write full", queue="loc_write", depth=32)
    )
    assert isinstance(err, ShardUnavailableError)
    assert err.queue == "loc_write"
    assert err.queue_depth == 32
    assert err.shard_id == "s9"
    assert shard.queue_rejections == {"loc_write": 1}
    # Non-queue causes leave the enrichment empty.
    err2 = shard._translate("get", TimeoutError("x"))
    assert err2.queue == ""
    assert err2.queue_depth == 0


def test_fleet_stats_merge_queue_rejections():
    shards = [
        ShardSpec(f"s{i}", scale=_scale(), **TINY).build() for i in range(2)
    ]
    fleet = FleetCache(shards)
    for i, shard in enumerate(fleet.shards.values()):
        shard._translate(
            "set",
            QueueFullError("full", queue="loc_write", depth=8),
        )
        if i == 0:
            shard._translate(
                "set", QueueFullError("full", queue="soc_write", depth=8)
            )
    merged = fleet.queue_rejections()
    assert merged == {"loc_write": 2, "soc_write": 1}
    assert fleet.stats_dict()["queue_rejections"] == merged
