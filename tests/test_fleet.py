"""Fleet subsystem behavior: shard lifecycle, error taxonomy, router
degradation, health-driven retirement, and heterogeneous fleets.

Complements tests/test_fleet_hashring.py (placement properties),
tests/test_fleet_differential.py (1-shard bit-identity), and
tests/test_fleet_soak.py (the end-to-end shard-loss soak).
"""

from __future__ import annotations

import pytest

from repro.bench.runner import Scale, make_trace
from repro.faults.model import HealthLogPage
from repro.fleet import (
    CacheShard,
    FleetCache,
    FleetConfig,
    FleetDriver,
    FleetHealthMonitor,
    MonitorConfig,
    ScriptedShardEvent,
    ShardFailurePlan,
    ShardSpec,
    ShardState,
    ShardUnavailableError,
)
from repro.ssd.errors import DeviceOfflineError, QueueFullError

TINY = Scale(num_superblocks=32, num_ops=4_000)


def build_shard(shard_id="s00", backend="fdp", scale=TINY):
    return ShardSpec(shard_id, backend=backend, scale=scale).build()


def small_trace(num_ops=3_000, seed=7, shards=2):
    nvm = int(TINY.geometry().logical_bytes * 0.9) * shards
    return make_trace("kvcache", nvm, TINY, num_ops=num_ops, seed=seed)


# ----------------------------------------------------------------------
# shard lifecycle + error taxonomy (satellite: unified taxonomy)
# ----------------------------------------------------------------------


class TestShardErrorTaxonomy:
    def test_dead_shard_raises_typed_error(self):
        shard = build_shard()
        shard.set(1, 4096)
        shard.kill(at_ops=5)
        with pytest.raises(ShardUnavailableError) as exc_info:
            shard.get(1)
        assert exc_info.value.shard_id == "s00"
        assert exc_info.value.op == "get"
        assert shard.died_at_ops == 5
        with pytest.raises(ShardUnavailableError):
            shard.set(2, 4096)
        with pytest.raises(ShardUnavailableError):
            shard.delete(1)

    def test_device_exception_translated_with_shard_id(self):
        """A device-layer unavailability exception surfaces as
        ShardUnavailableError carrying the originating shard id and the
        original exception — never as a bare SsdError."""
        shard = build_shard("s07")
        # Cut power behind the shard's back.  Sets buffer in DRAM, so
        # keep inserting until an eviction forces a flash admission and
        # hits DeviceOfflineError inside the cache stack.
        shard.backend.cache.device.power_cut(None)
        with pytest.raises(ShardUnavailableError) as exc_info:
            for key in range(100_000):
                shard.set(key, 4096)
        err = exc_info.value
        assert err.shard_id == "s07"
        assert err.op == "set"
        assert isinstance(err.cause, DeviceOfflineError)
        assert isinstance(err.__cause__, DeviceOfflineError)
        assert shard.errors_translated == 1

    def test_programming_errors_still_propagate(self):
        """Only unavailability-class exceptions are translated; a
        plain programming error is a bug and must not be masked."""

        class _Broken:
            kind = "broken"

            def get(self, key, now_ns):
                raise RuntimeError("logic bug")

        shard = CacheShard("s01", _Broken())
        with pytest.raises(RuntimeError):
            shard.get(1)

    def test_dead_shard_introspection_is_empty(self):
        shard = build_shard()
        shard.set(1, 4096)
        shard.kill()
        assert shard.resident_items() == {}
        assert not shard.contains(1)
        assert shard.health() is None
        shard.kill()  # idempotent
        assert shard.state is ShardState.DEAD

    def test_cannot_retire_dead_shard(self):
        shard = build_shard()
        shard.kill()
        with pytest.raises(ShardUnavailableError):
            shard.begin_retirement()


class _FlakyBackend:
    """Stub backend failing the first ``fail_times`` data-path calls."""

    kind = "flaky"

    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0
        self.store = {}

    def _maybe_fail(self):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise QueueFullError("submission queue full")

    def get(self, key, now_ns):  # HybridCache.get_where's shape
        self._maybe_fail()
        return ("stub" if key in self.store else "miss"), None, now_ns + 1000

    def set(self, key, size, now_ns):
        self._maybe_fail()
        self.store[key] = size
        return now_ns + 1000

    def delete(self, key, now_ns):
        self._maybe_fail()
        self.store.pop(key, None)
        return now_ns + 1000

    def contains(self, key):
        return key in self.store

    def resident_items(self):
        return dict(self.store)

    def health(self):
        return None

    def busy_until(self):
        return None

    def power_off(self, now_ns):
        self.store.clear()

    def merged_histogram(self, op):
        return None

    def clear_histograms(self):
        pass

    def page_counters(self):
        return 0, 0

    dlwa = 1.0

    def energy_kwh(self):
        return 0.0

    capacity_bytes = 1 << 20

    def stats_dict(self):
        return {"engine": "stub"}


# ----------------------------------------------------------------------
# router: retries, breakers, degraded service
# ----------------------------------------------------------------------


class TestRouterDegradation:
    def _fleet(self, fail_times, **config):
        cfg = FleetConfig(
            max_retries=2,
            breaker_failure_threshold=3,
            breaker_cooldown_ops=8,
            **config,
        )
        shard = CacheShard("only", _FlakyBackend(fail_times))
        return FleetCache([shard], cfg), shard

    def test_retry_then_succeed(self):
        fleet, shard = self._fleet(fail_times=2)
        result = fleet.set(1, 100)
        assert result.applied
        assert fleet.retries == 2
        assert fleet.dropped_sets == 0
        assert shard.backend.calls == 3

    def test_exhausted_retries_degrade_to_drop_and_miss(self):
        fleet, _ = self._fleet(fail_times=10**9)
        assert not fleet.set(1, 100).applied
        assert fleet.dropped_sets == 1
        result = fleet.get(1)
        assert result.miss and result.degraded
        assert fleet.degraded_misses == 1

    def test_breaker_opens_then_half_open_probe_recovers(self):
        fleet, shard = self._fleet(fail_times=3)
        backend = shard.backend
        # First get: 3 attempts, all fail -> breaker at threshold.
        assert fleet.get(1).degraded
        assert fleet.breakers["only"].state == "open"
        calls_when_opened = backend.calls
        # While open: fast-fail, the backend is never touched.
        for _ in range(3):
            assert fleet.get(1).degraded
        assert backend.calls == calls_when_opened
        assert fleet.breakers["only"].fast_fails == 3
        # Burn through the cooldown with more (fast-failed) ops, then
        # the half-open probe reaches the now-healed backend.
        for _ in range(8):
            fleet.get(1)
        assert fleet.set(2, 50).applied
        assert fleet.breakers["only"].state == "closed"
        assert fleet.get(2).hit

    def test_empty_ring_serves_misses_not_errors(self):
        shard = build_shard()
        fleet = FleetCache([shard])
        fleet.kill_shard("s00")
        result = fleet.get(1)
        assert result.miss and result.degraded and result.shard_id is None
        assert not fleet.set(1, 100).applied
        assert not fleet.delete(1).applied

    def test_duplicate_and_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetCache([])
        a = CacheShard("x", _FlakyBackend(0))
        b = CacheShard("x", _FlakyBackend(0))
        with pytest.raises(ValueError):
            FleetCache([a, b])


# ----------------------------------------------------------------------
# rebalance: retirement drain vs hard kill
# ----------------------------------------------------------------------


class TestRebalance:
    def _loaded_fleet(self, num_shards=3):
        shards = [
            build_shard(f"s{i:02d}", scale=TINY) for i in range(num_shards)
        ]
        fleet = FleetCache(shards, FleetConfig(ring_seed=11))
        trace = small_trace(num_ops=2_500, shards=num_shards)
        FleetDriver(fleet).run(trace)
        return fleet

    def test_retire_drains_onto_survivors(self):
        fleet = self._loaded_fleet()
        victim = fleet.shards["s01"]
        items = victim.resident_items()
        assert items, "victim should hold data before retirement"
        event = fleet.retire_shard("s01")
        assert event["items_moved"] == len(items)
        assert event["items_failed"] == 0
        assert not victim.alive
        # Every drained key is resident on its new ring owner.
        for key in items:
            owner = fleet.shards[fleet.ring.route(key)]
            assert owner.contains(key)
        audit = fleet.verify_placement()
        assert audit["misplaced"] == 0
        assert audit["duplicates"] == 0
        assert audit["shadow_mismatches"] == 0
        # A planned retirement is not a miss storm.
        fleet.get(next(iter(items)))
        assert fleet.storm_misses == 0

    def test_kill_loses_data_and_storms(self):
        fleet = self._loaded_fleet()
        victim_items = fleet.shards["s01"].resident_items()
        assert victim_items
        event = fleet.kill_shard("s01")
        assert event["items_lost"] == len(victim_items)
        storm_before = fleet.storm_misses
        for key in list(victim_items)[:50]:
            result = fleet.get(key)
            assert result.shard_id != "s01"
        assert fleet.storm_misses > storm_before
        audit = fleet.verify_placement()
        assert audit["misplaced"] == 0 and audit["duplicates"] == 0

    def test_add_shard_extends_both_rings(self):
        fleet = self._loaded_fleet(2)
        fleet.add_shard(build_shard("s99"))
        assert "s99" in fleet.ring
        assert "s99" in fleet.breakers
        assert fleet.set(424242, 100).applied  # routable fleet-wide


# ----------------------------------------------------------------------
# health monitor
# ----------------------------------------------------------------------


def _page(spare=100.0, used=0.0, media=0):
    return HealthLogPage(
        media_errors=media,
        read_uecc_errors=0,
        program_failures=0,
        erase_failures=0,
        retired_superblocks=0,
        latency_spikes=0,
        available_spare_pct=spare,
        percent_used=used,
    )


class TestHealthMonitor:
    def _fleet_with_health(self, pages):
        shards = [build_shard(f"s{i:02d}") for i in range(len(pages))]
        fleet = FleetCache(shards)
        for shard, page in zip(shards, pages):
            shard.backend.health = (lambda p: (lambda: p))(page)
        return fleet

    def test_health_driven_degrade_and_retire(self):
        fleet = self._fleet_with_health(
            [_page(), _page(spare=60.0), _page(spare=30.0)]
        )
        monitor = FleetHealthMonitor(
            fleet, MonitorConfig(poll_interval_ops=1)
        )
        transitions = monitor.observe(1)
        events = {(t["event"], t["shard_id"]) for t in transitions}
        assert ("degrade", "s01") in events
        assert ("retire", "s02") in events
        assert fleet.shards["s01"].state is ShardState.DEGRADED
        assert fleet.shards["s02"].state is ShardState.DEAD  # drained+killed
        assert "s02" not in fleet.ring

    def test_poll_interval_respected(self):
        fleet = self._fleet_with_health([_page(), _page(spare=10.0)])
        monitor = FleetHealthMonitor(
            fleet, MonitorConfig(poll_interval_ops=100)
        )
        assert monitor.observe(50) == []  # below the poll interval
        assert monitor.polls == 0
        fired = monitor.observe(100)
        assert monitor.polls == 1
        assert any(t["event"] == "retire" for t in fired)

    def test_scripted_plan_fires_once_at_exact_index(self):
        shards = [build_shard(f"s{i:02d}") for i in range(2)]
        fleet = FleetCache(shards)
        plan = ShardFailurePlan(
            [ScriptedShardEvent(10, "s01", "kill")]
        )
        monitor = FleetHealthMonitor(fleet, plan=plan)
        assert monitor.observe(9) == []
        fired = monitor.observe(10)
        assert [t["event"] for t in fired] == ["kill"]
        assert monitor.observe(11) == []  # fires exactly once
        assert plan.exhausted

    def test_scripted_retire_event(self):
        shards = [build_shard(f"s{i:02d}") for i in range(2)]
        fleet = FleetCache(shards)
        fleet.set(1, 100)
        monitor = FleetHealthMonitor(
            fleet, plan=[ScriptedShardEvent(5, "s00", "retire")]
        )
        fired = monitor.observe(5)
        assert fired and fired[0]["event"] == "retire"
        assert not fleet.shards["s00"].alive

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ScriptedShardEvent(1, "s", "explode")
        with pytest.raises(ValueError):
            ScriptedShardEvent(-1, "s")
        with pytest.raises(ValueError):
            MonitorConfig(poll_interval_ops=0)
        with pytest.raises(ValueError):
            MonitorConfig(degraded_spare_pct=10.0, retire_spare_pct=50.0)


# ----------------------------------------------------------------------
# spec validation + aggregation
# ----------------------------------------------------------------------


def test_shard_spec_validation():
    with pytest.raises(ValueError):
        ShardSpec("s", backend="floppy")
    with pytest.raises(ValueError):
        ShardSpec("")


@pytest.mark.parametrize("backend", ["fdp", "nonfdp"])
def test_shard_set_get_delete_roundtrip(backend):
    shard = build_shard(backend=backend)
    shard.set(1, 4096)
    hit, _, _ = shard.get(1)
    assert hit and shard.contains(1)
    shard.delete(1)
    assert not shard.contains(1)
    hit, _, _ = shard.get(1)
    assert not hit


def test_fleet_stats_dict_shape():
    shards = [build_shard(f"s{i:02d}") for i in range(2)]
    fleet = FleetCache(shards)
    FleetDriver(fleet).run(small_trace(1_000))
    stats = fleet.stats_dict()
    for key in (
        "shards", "ring", "ops", "hit_ratio", "storm_misses",
        "rebalance", "breakers", "fleet_dlwa", "energy_kwh", "co2e_kg",
    ):
        assert key in stats
    assert stats["ring"]["members"] == ["s00", "s01"]
    merged = fleet.merged_histogram("read")
    per_shard = [
        s.merged_histogram("read") for s in fleet.shards.values()
    ]
    assert merged.count == sum(h.count for h in per_shard if h)


class TestAdmissionSeedThreading:
    """Regression: ``ShardSpec.build()`` used to drop the admission
    seed on the floor — a randomized admission policy on a fleet shard
    silently kept its class-default RNG, so two same-seed fleet runs
    could replay different admission streams."""

    def test_spec_threads_admission_seed_into_cache_config(self):
        spec = ShardSpec("s00", scale=TINY, admission_seed=0xABCD)
        shard = spec.build()
        assert shard.backend.cache.config.admission_seed == 0xABCD

    def test_spec_default_leaves_seed_unset(self):
        shard = ShardSpec("s00", scale=TINY).build()
        assert shard.backend.cache.config.admission_seed is None

    def test_default_fleet_specs_derive_distinct_per_shard_seeds(self):
        from repro.bench.fleet import default_fleet_specs

        specs = default_fleet_specs(4, scale=TINY, seed=99)
        seeds = [s.admission_seed for s in specs]
        assert all(s is not None for s in seeds)
        assert len(set(seeds)) == len(seeds)  # no shared RNG streams
        # Deterministic: same soak seed -> same per-shard seeds.
        again = default_fleet_specs(4, scale=TINY, seed=99)
        assert [s.admission_seed for s in again] == seeds
        # And a different soak seed moves every stream.
        other = default_fleet_specs(4, scale=TINY, seed=100)
        assert all(a != b for a, b in zip(seeds,
                                          (s.admission_seed for s in other)))

    def test_default_fleet_specs_without_seed_keep_none(self):
        from repro.bench.fleet import default_fleet_specs

        specs = default_fleet_specs(3, scale=TINY)
        assert all(s.admission_seed is None for s in specs)

    def test_spec_with_admission_seed_pickles(self):
        import pickle

        spec = ShardSpec("s01", scale=TINY, admission_seed=42)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
