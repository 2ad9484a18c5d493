"""The replay loops run with the cyclic garbage collector paused.

:func:`repro.bench.driver.replay` (behind ``CacheBench`` and
``KernelBench``) and ``FleetDriver.run`` pause the collector through
:func:`repro.bench.driver.collector_paused` and put it back as it was:
on, off, or after the replay raised.  The data path makes no reference
cycles, so once a first replay has warmed the process up, a second one
leaves the collector nothing to reclaim.
"""

from __future__ import annotations

import gc

import pytest

from repro.bench import CacheBench, build_experiment
from repro.bench.runner import Scale, make_trace
from repro.cache.hybrid import HybridCache
from repro.fleet import FleetCache, FleetConfig, FleetDriver, ShardSpec

TINY = Scale(num_superblocks=32, num_ops=4_000)


def cache_run():
    """A ``CacheBench.run`` over a fresh small cache, as a callable."""
    cache = build_experiment(fdp=True, utilization=0.5, scale=TINY)
    trace = make_trace("kvcache", cache.config.nvm_bytes, TINY, num_ops=3_000, seed=7)
    return lambda: CacheBench().run(cache, trace)


def fleet_run():
    """A two-shard ``FleetDriver.run``, as a callable."""
    shards = [ShardSpec(f"s{i:02d}", scale=TINY).build() for i in range(2)]
    fleet = FleetCache(shards, FleetConfig(ring_seed=11))
    nvm = int(TINY.geometry().logical_bytes * 0.9) * 2
    trace = make_trace("kvcache", nvm, TINY, num_ops=3_000, seed=7)
    return lambda: FleetDriver(fleet).run(trace)


@pytest.fixture
def collector():
    """Restore the collector's state whatever the test leaves it in."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def fail_the_100th_get(monkeypatch):
    """Make ``HybridCache.get_where`` raise on its 100th call."""
    real = HybridCache.get_where
    calls = [0]

    def get_where(self, key, now_ns=0):
        calls[0] += 1
        if calls[0] == 100:
            raise RuntimeError("replay failed")
        return real(self, key, now_ns)

    monkeypatch.setattr(HybridCache, "get_where", get_where)


@pytest.mark.parametrize("make_run", [cache_run, fleet_run], ids=["cache", "fleet"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
class TestCollectorStateIsRestored:
    def test_after_a_replay(self, collector, make_run, enabled):
        run = make_run()
        (gc.enable if enabled else gc.disable)()
        run()
        assert gc.isenabled() == enabled

    def test_after_a_replay_that_raises(self, collector, make_run, enabled, monkeypatch):
        fail_the_100th_get(monkeypatch)  # before a shard binds the method
        run = make_run()
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="replay failed"):
            run()
        assert gc.isenabled() == enabled


@pytest.mark.parametrize("make_run", [cache_run, fleet_run], ids=["cache", "fleet"])
def test_the_loop_runs_with_the_collector_paused(collector, make_run, monkeypatch):
    states = []
    real = HybridCache.get_where

    def get_where(self, key, now_ns=0):
        states.append(gc.isenabled())
        return real(self, key, now_ns)

    monkeypatch.setattr(HybridCache, "get_where", get_where)
    run = make_run()
    gc.enable()
    run()
    assert states and not any(states)
    assert gc.isenabled()


@pytest.mark.parametrize("make_run", [cache_run, fleet_run], ids=["cache", "fleet"])
def test_a_replay_leaves_the_collector_nothing(collector, make_run):
    make_run()()  # warm-up: first imports and first uses
    run = make_run()
    gc.collect()
    run()
    assert gc.collect() == 0
