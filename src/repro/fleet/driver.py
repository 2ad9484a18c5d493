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
traffic deterministically.

:func:`replay_partitioned` is the throughput path: it routes the trace
once, partitions it into per-shard sub-traces, and replays them in
parallel worker processes (the :mod:`repro.bench.parallel` idiom —
picklable specs in, picklable summaries out, devices never cross the
process boundary).  Partitioned replay is exact, not approximate:
routing is deterministic, so each shard sees precisely the ops it
would have seen serially, in the same order.
"""

from __future__ import annotations

import dataclasses
import itertools
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..bench.driver import ReplayConfig
from ..workloads.trace import OP_GET, OP_SET, Trace
from .hashring import ConsistentHashRouter
from .monitor import FleetHealthMonitor
from .router import FleetCache
from .shard import ShardSpec

__all__ = [
    "FleetReplayConfig",
    "FleetIntervalPoint",
    "FleetRunResult",
    "FleetDriver",
    "ShardReplaySummary",
    "replay_partitioned",
]


@dataclasses.dataclass(frozen=True)
class FleetReplayConfig(ReplayConfig):
    """:class:`~repro.bench.driver.ReplayConfig` with the fleet's poll
    cadence: every knob and the clock policy are the single-cache
    replay's, applied per shard."""

    poll_interval_ops: int = 2000


def _windows(cfg: ReplayConfig, trace: Trace) -> Iterator[Iterator[tuple]]:
    """``trace`` one poll window at a time, as plain Python values.

    Yields, per window of ``cfg.poll_interval_ops`` ops (the last may be
    short), an iterator over its ``(op, key, size, arrival_ns)`` rows —
    ``arrival_ns`` from ``trace.arrivals_ns``, ``None`` without a
    schedule.  Converting a window at a time boxes no numpy scalar per
    op and keeps memory flat, as :func:`repro.bench.driver.replay` does
    inline; both fleet loops iterate through here.
    """
    schedule = trace.arrivals_ns
    for start in range(0, len(trace), cfg.poll_interval_ops):
        window = slice(start, start + cfg.poll_interval_ops)
        yield zip(
            trace.ops[window].tolist(),
            trace.keys[window].tolist(),
            trace.sizes[window].tolist(),
            schedule[window].tolist()
            if schedule is not None
            else itertools.repeat(None),
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

    def run(self, trace: Trace, *, name: Optional[str] = None) -> FleetRunResult:
        """Replay ``trace`` through the fleet; returns fleet metrics."""
        fleet = self.fleet
        cfg = self.config
        fleet_get, fleet_set, fleet_delete = fleet.get, fleet.set, fleet.delete
        observe = self.monitor.observe if self.monitor is not None else None

        total = len(trace)
        interval = cfg.arrival_interval_ns
        open_loop = interval is not None or trace.arrivals_ns is not None
        # Open loop on a fixed interval: op n of the driver's life
        # arrives at n * interval.  ops_done is cumulative, so arrivals
        # stay continuous across segment-by-segment replay.
        ops_done = self.ops_done
        now = ops_done * interval if interval is not None else None

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

        for rows in _windows(cfg, trace):
            for op, key, size, at in rows:
                if at is not None:
                    # Open loop, per-op schedule: the op arrives when
                    # the schedule says, however far behind the serving
                    # shard's device is.
                    now = at
                if op == OP_GET:
                    result = fleet_get(key, now)
                    served = result.shard_id
                    if not result.hit and not result.degraded:
                        # Fill lands at the GET's completion, as in
                        # CacheBench's open-loop path.
                        fill_at = result.completion_ns if open_loop else None
                        set_result = fleet_set(key, size, fill_at)
                        if set_result.applied:
                            served = set_result.shard_id
                elif op == OP_SET:
                    served = fleet_set(key, size, now).shard_id
                else:  # OP_DEL
                    served = fleet_delete(key, now).shard_id

                if not open_loop:
                    self._advance_clock(served)
                elif at is None:
                    now += interval
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


# ----------------------------------------------------------------------
# partitioned parallel replay
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ShardReplaySummary:
    """Picklable per-shard result of a partitioned replay."""

    shard_id: str
    backend: str
    ops: int
    gets: int
    hits: int
    sets: int
    deletes: int
    hit_ratio: float
    dlwa: float
    host_pages_written: int
    nand_pages_written: int
    read_p99_ns: Optional[int]
    energy_kwh: float


def _replay_shard(
    payload: Tuple[ShardSpec, Trace, FleetReplayConfig],
) -> ShardReplaySummary:
    """Worker body: build the shard locally, replay its partition."""
    spec, sub_trace, cfg = payload
    shard = spec.build()
    next_issue = cfg.next_issue_ns
    for rows in _windows(cfg, sub_trace):
        for op, key, size, _ in rows:
            if op == OP_GET:
                if not shard.get(key)[0]:  # (hit, where, done)
                    shard.set(key, size)
            elif op == OP_SET:
                shard.set(key, size)
            else:
                shard.delete(key)
            shard.clock_ns = next_issue(shard.clock_ns, shard.busy_until())
    hist = shard.merged_histogram("read")
    host, nand = shard.page_counters()
    return ShardReplaySummary(
        shard_id=shard.shard_id,
        backend=shard.backend.kind,
        ops=len(sub_trace),
        gets=shard.gets,
        hits=shard.hits,
        sets=shard.sets,
        deletes=shard.deletes,
        hit_ratio=shard.hit_ratio,
        dlwa=shard.dlwa,
        host_pages_written=host,
        nand_pages_written=nand,
        read_p99_ns=None if hist is None or hist.count == 0 else hist.p99(),
        energy_kwh=shard.energy_kwh(),
    )


def partition_trace(
    specs: Sequence[ShardSpec],
    trace: Trace,
    *,
    vnodes: int = 64,
    ring_seed: int = 0,
) -> Dict[str, Trace]:
    """Split a trace into per-shard sub-traces by ring ownership.

    Order within each partition is preserved, so every shard replays
    exactly the subsequence it would have served in a serial fleet run
    with static membership.
    """
    ring = ConsistentHashRouter(
        [s.shard_id for s in specs], vnodes=vnodes, seed=ring_seed
    )
    owners = ring.route_many(trace.keys)
    indices: Dict[str, List[int]] = {s.shard_id: [] for s in specs}
    for i, owner in enumerate(owners):
        indices[owner].append(i)
    return {
        shard_id: trace.slice_indices(idx, name=f"{trace.name}:{shard_id}")
        for shard_id, idx in indices.items()
    }


def replay_partitioned(
    specs: Sequence[ShardSpec],
    trace: Trace,
    *,
    workers: int = 1,
    config: Optional[FleetReplayConfig] = None,
    vnodes: int = 64,
    ring_seed: int = 0,
) -> List[ShardReplaySummary]:
    """Replay one trace across shards, one worker process per shard.

    Results are returned sorted by shard id and are identical for any
    ``workers`` value (including serial in-process execution) — the
    partition, not the schedule, defines what each shard replays.

    The per-shard replay is closed loop only, so open-loop input is
    rejected rather than silently replayed on the wrong clock.
    """
    cfg = config or FleetReplayConfig()
    for field, value in (
        ("config.arrival_interval_ns", cfg.arrival_interval_ns),
        ("trace.arrivals_ns", trace.arrivals_ns),
    ):
        if value is not None:
            raise ValueError(
                f"replay_partitioned replays closed loop; {field} is set"
            )
    parts = partition_trace(
        specs, trace, vnodes=vnodes, ring_seed=ring_seed
    )
    payloads = [
        (spec, parts[spec.shard_id], cfg)
        for spec in sorted(specs, key=lambda s: s.shard_id)
    ]
    if workers <= 1:
        return [_replay_shard(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_replay_shard, payloads))
