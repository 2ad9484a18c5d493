"""Unit tests for the bench harness: metrics, driver, runner."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import (
    CacheBench,
    LatencyReservoir,
    ReplayConfig,
    Scale,
    build_experiment,
    make_trace,
    run_experiment,
)
from repro.bench.failslow import run_failslow_soak
from repro.bench.fleet import run_fleet_soak
from repro.bench.latency import run_latency_soak
from repro.bench.metrics import IntervalPoint, steady_state_dlwa
from repro.bench.overload import run_overload_soak
from repro.fleet import FleetReplayConfig
from repro.workloads import kv_cache_trace

TINY_SCALE = Scale(num_superblocks=64, num_ops=20_000)


class TestLatencyReservoir:
    def test_percentiles(self):
        r = LatencyReservoir()
        for v in range(1, 101):
            r.add(v * 1000)
        assert r.percentile(50) == pytest.approx(50_500, rel=0.02)
        assert r.p99_us() == pytest.approx(99.01, rel=0.02)

    def test_empty_reservoir(self):
        assert LatencyReservoir().percentile(99) == 0.0

    def test_decimation_bounds_memory(self):
        r = LatencyReservoir(capacity=128)
        for v in range(100_000):
            r.add(v)
        assert len(r) < 128
        assert r.count_seen == 100_000
        # Still a sane estimate of the distribution.
        assert r.percentile(50) == pytest.approx(50_000, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyReservoir(capacity=1)

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(2, 48),
        windows=st.lists(
            st.lists(st.integers(0, 10**9), max_size=160), max_size=12
        ),
        one_by_one=st.integers(0, 12),
    )
    def test_windows_equal_the_per_sample_loop(
        self, capacity, windows, one_by_one
    ):
        """``extend`` over any split of the stream (with ``add`` for the
        ``one_by_one``-th window's samples) leaves the reservoir the
        per-sample loop leaves: same samples, stride and count, so the
        same percentiles, whatever the capacity."""
        oracle = _PerSampleReservoir(capacity)
        reservoir = LatencyReservoir(capacity)
        for index, window in enumerate(windows):
            for latency in window:
                oracle.add(latency)
            if index == one_by_one:
                for latency in window:
                    reservoir.add(latency)
            else:
                reservoir.extend(window)
            assert reservoir._samples == oracle._samples
            assert reservoir._stride == oracle._stride
            assert reservoir.count_seen == oracle._seen
            assert len(reservoir) < capacity


class _PerSampleReservoir:
    """``LatencyReservoir.add`` as it stood before the per-window entry
    point, kept verbatim as the oracle."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._samples = []
        self._stride = 1
        self._seen = 0

    def add(self, latency_ns: int) -> None:
        self._seen += 1
        if self._seen % self._stride:
            return
        self._samples.append(latency_ns)
        if len(self._samples) >= self.capacity:
            self._samples = self._samples[::2]
            self._stride *= 2


class TestSteadyState:
    def test_uses_last_half(self):
        pts = [
            IntervalPoint(i, 0.0, dl, dl)
            for i, dl in enumerate([1.0, 1.0, 3.0, 3.0])
        ]
        assert steady_state_dlwa(pts) == 3.0

    def test_empty_series(self):
        assert steady_state_dlwa([]) is None


class TestReplayConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(think_ns=-1)
        with pytest.raises(ValueError):
            ReplayConfig(poll_interval_ops=0)
        with pytest.raises(ValueError):
            ReplayConfig(max_backlog_ns=-5)

    def test_fleet_config_is_the_replay_config_with_one_default(self):
        base = dataclasses.fields(ReplayConfig)
        fleet = dataclasses.fields(FleetReplayConfig)
        assert [f.name for f in fleet] == [f.name for f in base]
        assert {
            f.name for f, g in zip(base, fleet) if f.default != g.default
        } == {"poll_interval_ops"}
        # Same values, different class: not equal, as for any dataclass.
        assert ReplayConfig(poll_interval_ops=2000) != FleetReplayConfig()


class TestRunner:
    def test_build_experiment_fdp_wiring(self):
        cache = build_experiment(fdp=True, utilization=0.5, scale=TINY_SCALE)
        assert cache.device.fdp_enabled
        assert not cache.soc.handle.is_default

    def test_build_experiment_nonfdp_wiring(self):
        cache = build_experiment(fdp=False, utilization=0.5, scale=TINY_SCALE)
        assert not cache.device.fdp_enabled
        assert cache.soc.handle.is_default

    def test_utilization_controls_cache_size(self):
        half = build_experiment(fdp=True, utilization=0.5, scale=TINY_SCALE)
        full = build_experiment(fdp=True, utilization=1.0, scale=TINY_SCALE)
        assert full.config.nvm_bytes > 1.9 * half.config.nvm_bytes

    def test_soc_fraction_override(self):
        big_soc = build_experiment(
            fdp=True, utilization=1.0, soc_fraction=0.5, scale=TINY_SCALE
        )
        assert big_soc.config.soc_bytes > big_soc.config.nvm_bytes * 0.45

    def test_dram_override(self):
        cache = build_experiment(
            fdp=True, utilization=0.5, dram_bytes=123 * 4096, scale=TINY_SCALE
        )
        assert cache.dram.capacity_bytes == 123 * 4096

    def test_utilization_validation(self):
        with pytest.raises(ValueError):
            build_experiment(fdp=True, utilization=0.0, scale=TINY_SCALE)

    def test_make_trace_unknown_workload(self):
        with pytest.raises(ValueError):
            make_trace("nope", 1 << 20, TINY_SCALE)

    def test_make_trace_known_workloads(self):
        for name in ("kvcache", "wo-kvcache", "twitter"):
            t = make_trace(name, 1 << 22, TINY_SCALE, num_ops=1000)
            assert len(t) == 1000

    @pytest.mark.parametrize("num_ops", [0, -5])
    def test_make_trace_refuses_fewer_than_one_op(self, num_ops):
        """0 is not "use the default": it was replayed as ``scale.num_ops``."""
        with pytest.raises(ValueError, match="num_ops"):
            make_trace("kvcache", 1 << 22, TINY_SCALE, num_ops=num_ops)
        assert len(make_trace("kvcache", 1 << 22, TINY_SCALE, num_ops=None)) == (
            TINY_SCALE.num_ops
        )

    @pytest.mark.parametrize(
        "soak", [run_fleet_soak, run_failslow_soak, run_overload_soak, run_latency_soak]
    )
    def test_fleet_soaks_refuse_zero_ops(self, soak):
        # The latency soak once blamed its warm-up instead
        # ("warmup_ops must be in [0, num_ops)").
        with pytest.raises(ValueError, match="num_ops must be >= 1, got 0"):
            soak(num_ops=0)


class TestDriver:
    def test_run_produces_consistent_result(self):
        r = run_experiment(
            "kvcache", fdp=True, utilization=0.5, scale=TINY_SCALE,
            num_ops=20_000,
        )
        assert r.ops == 20_000
        assert 0.0 <= r.hit_ratio <= 1.0
        assert r.dlwa >= 1.0
        assert r.sim_seconds > 0
        assert r.throughput_kops > 0

    def test_fill_on_miss_generates_flash_traffic(self):
        cache = build_experiment(fdp=True, utilization=0.5, scale=TINY_SCALE)
        trace = kv_cache_trace(20_000, 5_000)
        result = CacheBench().run(cache, trace)
        assert result.host_pages_written > 0

    def test_trace_schedule_drives_open_loop(self):
        """A trace's arrival schedule sets every op's issue time, and
        wins over a fixed interval."""
        from repro.workloads import Trace

        cache = build_experiment(fdp=True, utilization=0.5, scale=TINY_SCALE)
        base = kv_cache_trace(2_000, 1_000)
        arrivals = np.arange(2_000, dtype=np.int64) * 7_000
        trace = Trace(base.ops, base.keys, base.sizes, arrivals_ns=arrivals)
        result = CacheBench(ReplayConfig(arrival_interval_ns=1_000)).run(cache, trace)
        assert result.sim_seconds == arrivals[-1] / 1e9

    def test_interval_series_polled(self):
        cache = build_experiment(fdp=True, utilization=0.5, scale=TINY_SCALE)
        trace = kv_cache_trace(20_000, 5_000)
        bench = CacheBench(ReplayConfig(poll_interval_ops=5_000))
        result = bench.run(cache, trace)
        assert len(result.interval_series) == 4
        assert result.interval_series[-1].ops == 20_000

    def test_progress_callback(self):
        cache = build_experiment(fdp=True, utilization=0.5, scale=TINY_SCALE)
        trace = kv_cache_trace(10_000, 2_000)
        calls = []
        CacheBench(ReplayConfig(poll_interval_ops=2_500)).run(
            cache, trace, progress=lambda done, total: calls.append(done)
        )
        assert calls == [2500, 5000, 7500, 10000]

    def test_deterministic_same_seed(self):
        a = run_experiment(
            "kvcache", fdp=True, utilization=0.5, scale=TINY_SCALE,
            num_ops=15_000, seed=3,
        )
        b = run_experiment(
            "kvcache", fdp=True, utilization=0.5, scale=TINY_SCALE,
            num_ops=15_000, seed=3,
        )
        assert a.dlwa == b.dlwa
        assert a.hit_ratio == b.hit_ratio
        assert a.host_pages_written == b.host_pages_written

    def test_summary_row_renders(self):
        r = run_experiment(
            "kvcache", fdp=False, utilization=0.5, scale=TINY_SCALE,
            num_ops=10_000,
        )
        row = r.summary_row()
        assert "DLWA" in row and "fdp=False" in row

    def test_delete_ops_replayed(self):
        import numpy as np

        from repro.workloads import OP_DEL, OP_SET, Trace

        cache = build_experiment(fdp=True, utilization=0.5, scale=TINY_SCALE)
        ops = np.array([OP_SET, OP_DEL] * 500, dtype=np.uint8)
        keys = np.repeat(np.arange(500, dtype=np.int64), 2)
        sizes = np.full(1000, 300, dtype=np.int64)
        CacheBench().run(cache, Trace(ops, keys, sizes))
        assert cache.deletes == 500
