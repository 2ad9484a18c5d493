"""Fleet reaction path for fail-slow: deadlines, detector, quarantine."""

from __future__ import annotations

import pytest

from repro.bench.runner import Scale
from repro.faults.failslow import FailSlowConfig
from repro.fleet import (
    FleetCache,
    FleetConfig,
    FleetHealthMonitor,
    MonitorConfig,
    ShardSpec,
    SlowShardError,
)

TINY = Scale(num_superblocks=48, num_ops=1_000)


def build_fleet(num_shards=3, *, deadline_ns=None, failslow=None):
    shards = [
        ShardSpec(
            f"shard{i:02d}", scale=TINY, failslow=failslow
        ).build()
        for i in range(num_shards)
    ]
    return FleetCache(shards, FleetConfig(deadline_ns=deadline_ns))


def detector_config(**overrides):
    base = dict(
        poll_interval_ops=1,
        latency_detector=True,
        latency_min_samples=4,
        gray_streak_polls=2,
    )
    base.update(overrides)
    return MonitorConfig(**base)


# ----------------------------------------------------------------------
# spec plumbing
# ----------------------------------------------------------------------


class TestSpecValidation:
    def test_failslow_needs_scheduler(self):
        with pytest.raises(ValueError):
            ShardSpec("s0", sched=False, failslow=FailSlowConfig())

    def test_built_shard_exposes_overlay_status(self):
        shard = ShardSpec(
            "s0", scale=TINY, failslow=FailSlowConfig()
        ).build()
        status = shard.failslow_status()
        assert status is not None and status["enabled"] is False
        plain = ShardSpec("s1", scale=TINY).build()
        assert plain.failslow_status() is None


# ----------------------------------------------------------------------
# deadline-bounded GETs
# ----------------------------------------------------------------------


class TestDeadline:
    def test_shard_raises_slow_shard_error(self):
        fleet = build_fleet(2)
        shard = fleet.live_shards[0]
        shard.set(1, 4096)
        with pytest.raises(SlowShardError) as exc_info:
            shard.get(1, deadline_ns=1)  # any real read takes > 1 ns
        err = exc_info.value
        assert err.shard_id == shard.shard_id
        assert err.latency_ns > err.deadline_ns == 1
        assert shard.deadline_misses == 1
        # The rolling window records the *censored* latency — the host
        # stopped watching at the deadline.
        assert shard.recent_read_ns[-1] == 1
        assert shard.stats_dict()["deadline_misses"] == 1

    def test_fleet_degrades_to_counted_miss(self):
        fleet = build_fleet(2, deadline_ns=1)
        fleet.set(1, 4096)
        result = fleet.get(1)
        assert result.miss and result.deadline_missed
        assert fleet.deadline_misses == 1
        assert fleet.retries == 0  # slow reads are never retried
        # Availability is untouched: the shard is alive, the breaker
        # closed, and an un-deadlined fleet would have served the hit.
        assert all(s.alive for s in fleet.live_shards)

    def test_no_deadline_means_no_misses(self):
        fleet = build_fleet(2)
        fleet.set(1, 4096)
        assert fleet.get(1).hit
        assert fleet.deadline_misses == 0


# ----------------------------------------------------------------------
# gray-failure detector
# ----------------------------------------------------------------------


def seed_latencies(fleet, per_shard):
    for shard_id, values in per_shard.items():
        shard = fleet.shards[shard_id]
        shard.recent_read_ns.clear()
        shard.recent_read_ns.extend(values)


class TestDetector:
    def test_sustained_slow_shard_quarantined(self):
        fleet = build_fleet(3)
        monitor = FleetHealthMonitor(fleet, detector_config())
        seed_latencies(
            fleet,
            {
                "shard00": [100_000] * 8,
                "shard01": [120_000] * 8,
                "shard02": [50_000_000] * 8,  # gray-failed
            },
        )
        assert monitor.observe(1) == []  # streak 1: suspected, not acted
        fired = monitor.observe(2)  # streak 2: detection + quarantine
        events = [f["event"] for f in fired]
        assert events == ["gray_failure", "quarantine"]
        assert monitor.gray_failure_detections == 1
        assert monitor.quarantines == 1
        assert fleet.quarantined_shards == 1
        assert not fleet.shards["shard02"].alive
        assert len(fleet.live_shards) == 2
        assert "shard02" not in fleet.ring
        # Detection is edge-triggered: later polls don't re-fire.
        assert monitor.observe(3) == []
        assert monitor.gray_failure_detections == 1

    def test_healthy_fleet_no_false_positives(self):
        fleet = build_fleet(3)
        monitor = FleetHealthMonitor(fleet, detector_config())
        seed_latencies(
            fleet,
            {
                "shard00": [100_000] * 8,
                "shard01": [140_000] * 8,
                "shard02": [180_000] * 8,
            },
        )
        for ops in range(1, 6):
            monitor.observe(ops)
        assert monitor.latency_polls == 5
        assert monitor.gray_failure_detections == 0
        assert len(fleet.live_shards) == 3

    def test_floor_masks_small_absolute_tails(self):
        """A 10x peer ratio below the floor is noise, not gray failure."""
        fleet = build_fleet(3)
        monitor = FleetHealthMonitor(
            fleet, detector_config(latency_floor_ns=5_000_000)
        )
        seed_latencies(
            fleet,
            {
                "shard00": [100_000] * 8,
                "shard01": [100_000] * 8,
                "shard02": [1_000_000] * 8,  # 10x peers, under the floor
            },
        )
        monitor.observe(1)
        monitor.observe(2)
        assert monitor.gray_failure_detections == 0

    def test_streak_resets_on_healthy_poll(self):
        fleet = build_fleet(3)
        monitor = FleetHealthMonitor(fleet, detector_config())
        slow = {
            "shard00": [100_000] * 8,
            "shard01": [100_000] * 8,
            "shard02": [50_000_000] * 8,
        }
        healthy = dict(slow, shard02=[110_000] * 8)
        seed_latencies(fleet, slow)
        monitor.observe(1)  # streak 1
        seed_latencies(fleet, healthy)
        monitor.observe(2)  # recovered: streak back to 0
        seed_latencies(fleet, slow)
        monitor.observe(3)  # streak 1 again — never reaches 2
        assert monitor.gray_failure_detections == 0
        assert monitor.latency_verdicts["shard02"]["streak"] == 1

    def test_needs_two_shards_with_full_windows(self):
        fleet = build_fleet(2)
        monitor = FleetHealthMonitor(fleet, detector_config())
        # Only one shard has enough samples: no baseline, no verdicts.
        seed_latencies(fleet, {"shard00": [50_000_000] * 8})
        fleet.shards["shard01"].recent_read_ns.clear()
        monitor.observe(1)
        monitor.observe(2)
        assert monitor.gray_failure_detections == 0
        assert monitor.latency_verdicts == {}

# ----------------------------------------------------------------------
# quarantine drain and observability
# ----------------------------------------------------------------------


class TestQuarantine:
    def test_quarantine_drains_resident_keys(self):
        fleet = build_fleet(3)
        for key in range(40):
            fleet.set(key, 4096)
        victim = fleet.live_shards[0].shard_id
        resident = set(fleet.shards[victim].resident_items())
        assert resident
        record = fleet.quarantine_shard(victim)
        assert record["event"] == "quarantine"
        assert record["items_moved"] == len(resident)
        # Drained keys still serve as hits from the survivors.
        for key in resident:
            assert fleet.get(key).hit

    def test_stats_dict_surfaces_failslow_counters(self):
        fleet = build_fleet(
            2, deadline_ns=1, failslow=FailSlowConfig()
        )
        monitor = FleetHealthMonitor(fleet, detector_config())
        fleet.set(1, 4096)
        fleet.get(1)
        monitor.observe(1)
        stats = fleet.stats_dict()
        assert stats["deadline_misses"] == 1
        assert stats["quarantined_shards"] == 0
        assert stats["monitor"]["latency_polls"] == 1
        assert stats["monitor"]["gray_failure_detections"] == 0
        for shard_stats in stats["shards"].values():
            assert "deadline_misses" in shard_stats
