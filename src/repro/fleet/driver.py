"""Trace replay across a shard fleet.

:class:`FleetDriver` is :class:`~repro.bench.driver.CacheBench` lifted
to a cluster: one trace, closed-loop, with the same per-op think time
and bounded device backlog — applied to *the shard that served each
op*, because shards are independent devices with independent
timelines.  With a single shard the math degenerates to exactly
CacheBench's loop, which is the 1-shard differential test's invariant.

Between ops the driver feeds the
:class:`~repro.fleet.monitor.FleetHealthMonitor`, so scripted kills
land on exact op indices and health-driven retirements interleave with
traffic deterministically.  :meth:`FleetDriver.run` is the fleet's only
replay loop: every op goes through the router, and so through the
governor and the circuit breakers.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, List, Optional

from ..bench.driver import ReplayConfig, collector_paused
from ..cache.hybrid import MISS
from ..workloads.trace import OP_GET, OP_SET, Trace
from .monitor import FleetHealthMonitor
from .router import FleetCache

__all__ = [
    "FleetReplayConfig",
    "FleetIntervalPoint",
    "FleetRunResult",
    "FleetDriver",
]


@dataclasses.dataclass(frozen=True)
class FleetReplayConfig(ReplayConfig):
    """:class:`~repro.bench.driver.ReplayConfig` with the fleet's poll
    cadence: every knob and the clock policy are the single-cache
    replay's, applied per shard."""

    poll_interval_ops: int = 2000


def _windows(cfg: ReplayConfig, trace: Trace, ops_done: int) -> Iterator[Iterator[tuple]]:
    """``trace`` one poll window at a time, as plain Python values.

    Yields, per window of ``cfg.poll_interval_ops`` ops (the last may be
    short), an iterator over its ``(op, key, size, arrival_ns)`` rows.
    ``arrival_ns`` comes from ``trace.arrivals_ns``; without a schedule
    it is ``n * cfg.arrival_interval_ns`` for op ``n`` of a driver that
    has replayed ``ops_done`` ops before this trace, and ``None`` in
    closed loop.  Converting a window at a time boxes no numpy scalar per
    op and keeps memory flat, as :func:`repro.bench.driver.replay` does
    inline; :meth:`FleetDriver.run` iterates through here.
    """
    schedule = trace.arrivals_ns
    interval = cfg.arrival_interval_ns
    for start in range(0, len(trace), cfg.poll_interval_ops):
        window = slice(start, start + cfg.poll_interval_ops)
        if schedule is not None:
            arrivals = schedule[window].tolist()
        elif interval is not None:
            arrivals = itertools.count((ops_done + start) * interval, interval)
        else:
            arrivals = itertools.repeat(None)
        yield zip(
            trace.ops[window].tolist(),
            trace.keys[window].tolist(),
            trace.sizes[window].tolist(),
            arrivals,
        )


@dataclasses.dataclass(frozen=True)
class FleetIntervalPoint:
    """One polling-interval sample of fleet service quality."""

    ops: int
    interval_miss_ratio: float
    cumulative_miss_ratio: float
    storm_misses: int
    degraded_misses: int
    live_shards: int


@dataclasses.dataclass
class FleetRunResult:
    """Metrics from one fleet trace replay."""

    name: str
    ops: int
    gets: int
    hits: int
    misses: int
    miss_ratio: float
    degraded_misses: int
    storm_misses: int
    sets: int
    applied_sets: int
    dropped_sets: int
    deletes: int
    retries: int
    sim_seconds: float
    interval_series: List[FleetIntervalPoint]
    transitions: List[dict]


class FleetDriver:
    """Replays traces against a :class:`FleetCache`, closed-loop."""

    def __init__(
        self,
        fleet: FleetCache,
        config: Optional[FleetReplayConfig] = None,
        monitor: Optional[FleetHealthMonitor] = None,
    ) -> None:
        self.fleet = fleet
        self.config = config or FleetReplayConfig()
        self.monitor = monitor
        # Cumulative across run() calls, so segment-by-segment replay
        # (the soak's measurement windows) shares one op timeline with
        # the monitor's scripted plan.
        self.ops_done = 0

    def _advance_clock(self, shard_id: Optional[str]) -> None:
        """The closed-loop step on the serving shard's clock."""
        if shard_id is None:
            return
        shard = self.fleet.shards[shard_id]
        if shard.alive:
            shard.clock_ns = self.config.next_issue_ns(
                shard.clock_ns, shard.busy_until()
            )

    @collector_paused()
    def run(self, trace: Trace, *, name: Optional[str] = None) -> FleetRunResult:
        """Replay ``trace`` through the fleet; returns fleet metrics."""
        fleet = self.fleet
        cfg = self.config
        fleet_get, fleet_set, fleet_delete = fleet.get, fleet.set, fleet.delete
        observe = self.monitor.observe if self.monitor is not None else None

        total = len(trace)
        open_loop = (
            cfg.arrival_interval_ns is not None or trace.arrivals_ns is not None
        )
        # ops_done is cumulative, so arrivals on a fixed interval stay
        # continuous across segment-by-segment replay.
        ops_done = self.ops_done

        series: List[FleetIntervalPoint] = []
        prev_gets, prev_misses = fleet.gets, fleet.misses
        start_transitions = (
            len(self.monitor.transitions) if self.monitor else 0
        )
        start = {
            "gets": fleet.gets,
            "hits": fleet.hits,
            "misses": fleet.misses,
            "degraded": fleet.degraded_misses,
            "storm": fleet.storm_misses,
            "sets": fleet.sets,
            "applied": fleet.applied_sets,
            "dropped": fleet.dropped_sets,
            "deletes": fleet.deletes,
            "retries": fleet.retries,
        }

        for rows in _windows(cfg, trace, ops_done):
            # Open loop, an op arrives when its arrival time says,
            # however far behind the serving shard's device is; closed
            # loop (``now`` is None), on the shard's own clock.
            for op, key, size, now in rows:
                if op == OP_GET:
                    result = fleet_get(key, now)
                    if result.where == MISS:  # a miss to fill, not degraded
                        # Fill lands at the GET's completion, as in
                        # CacheBench's open-loop path.
                        fill = fleet_set(
                            key, size, result.completion_ns if open_loop else None
                        )
                        if fill.applied:
                            result = fill
                elif op == OP_SET:
                    result = fleet_set(key, size, now)
                else:  # OP_DEL
                    result = fleet_delete(key, now)
                if not open_loop:
                    self._advance_clock(result.shard_id)
                ops_done += 1
                if observe is not None:
                    observe(ops_done)

            # One service-quality sample per window (the last may be short).
            self.ops_done = ops_done
            interval_gets = fleet.gets - prev_gets
            interval_misses = fleet.misses - prev_misses
            series.append(
                FleetIntervalPoint(
                    ops=ops_done,
                    interval_miss_ratio=(
                        interval_misses / interval_gets
                        if interval_gets
                        else 0.0
                    ),
                    cumulative_miss_ratio=fleet.miss_ratio,
                    storm_misses=fleet.storm_misses,
                    degraded_misses=fleet.degraded_misses,
                    live_shards=len(fleet.live_shards),
                )
            )
            prev_gets, prev_misses = fleet.gets, fleet.misses

        gets = fleet.gets - start["gets"]
        misses = fleet.misses - start["misses"]
        sim_ns = max(
            (s.clock_ns for s in fleet.shards.values()), default=0
        )
        transitions = (
            self.monitor.transitions[start_transitions:]
            if self.monitor
            else []
        )
        return FleetRunResult(
            name=name or trace.name,
            ops=total,
            gets=gets,
            hits=fleet.hits - start["hits"],
            misses=misses,
            miss_ratio=misses / gets if gets else 0.0,
            degraded_misses=fleet.degraded_misses - start["degraded"],
            storm_misses=fleet.storm_misses - start["storm"],
            sets=fleet.sets - start["sets"],
            applied_sets=fleet.applied_sets - start["applied"],
            dropped_sets=fleet.dropped_sets - start["dropped"],
            deletes=fleet.deletes - start["deletes"],
            retries=fleet.retries - start["retries"],
            sim_seconds=sim_ns / 1e9,
            interval_series=series,
            transitions=list(transitions),
        )

