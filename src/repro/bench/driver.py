"""CacheBench-style trace replayer.

Drives a :class:`~repro.cache.hybrid.HybridCache` with a
:class:`~repro.workloads.trace.Trace`, closed-loop, while collecting
the paper's metrics:

* a simulated clock advances with each op's completion plus a host
  think time, so throughput and tail latency reflect device
  interference (GC bursts push the device busy horizon forward and
  subsequent flash reads queue behind it);
* a bounded device backlog models the finite buffering in front of the
  SSD — without it, asynchronous LOC flushes could run the device
  arbitrarily far ahead of the host clock;
* DLWA is polled on an op interval by differencing device counters,
  the same way the paper polls ``nvme get-log`` every 10 minutes;
* GETs that miss are *filled* (read-through), which is how trace
  replay produces cache insertions for read-dominant workloads.

:func:`replay` is the only loop that does this, and
:class:`ReplayConfig` holds the only definition of the replay clock
(think time, backlog clamp, fixed-rate open loop); the fleet drivers
(:mod:`repro.fleet.driver`) apply the same policy per shard.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, List, Optional

from ..cache.hybrid import HIT_DRAM, MISS, HybridCache
from ..workloads.trace import OP_GET, OP_SET, Trace
from .metrics import IntervalPoint, LatencyReservoir, RunResult, steady_state_dlwa

__all__ = ["CacheBench", "ReplayConfig", "replay"]


@dataclasses.dataclass(frozen=True)
class ReplayConfig:
    """Replay knobs.

    ``think_ns`` is host-side per-op cost; ``max_backlog_ns`` bounds
    how far the device timeline may run ahead of the host clock
    (bounded queueing); ``poll_interval_ops`` is the DLWA sampling
    cadence.

    ``arrival_interval_ns`` switches the replay from closed-loop to
    **open-loop**: ops are issued on a fixed clock (one op per
    interval) regardless of completion times, the way a fixed-rate
    load generator drives a device under test.  Closed-loop replay
    couples the host clock to the device — an arm doing more GC gets
    throttled, which spaces its arrivals out and *masks* its
    contention — so tail-latency comparisons (the latency soak) must
    replay both arms open-loop at the same rate; throughput-oriented
    benches keep the closed loop.

    A trace that carries a **per-op arrival schedule**
    (``Trace.arrivals_ns``, as the adversarial timing transforms —
    diurnal waves, flash-crowd spikes — produce) replays open loop on
    that schedule, whatever ``arrival_interval_ns`` says.
    """

    think_ns: int = 100_000
    max_backlog_ns: int = 30_000_000
    poll_interval_ops: int = 50_000
    arrival_interval_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.think_ns < 0:
            raise ValueError("think_ns must be non-negative")
        if self.max_backlog_ns < 0:
            raise ValueError("max_backlog_ns must be non-negative")
        if self.poll_interval_ops <= 0:
            raise ValueError("poll_interval_ops must be positive")
        if self.arrival_interval_ns is not None and self.arrival_interval_ns <= 0:
            raise ValueError("arrival_interval_ns must be positive or None")

    # ------------------------------------------------------------------
    # the replay clock policy, shared by every driver
    # ------------------------------------------------------------------

    def next_issue_ns(self, done_ns: int, busy_until: Optional[int]) -> int:
        """The closed-loop step: when the op after ``done_ns`` issues.

        The host thinks, then stalls while the device (busy horizon
        ``busy_until``, ``None`` for a backend without one) is more
        than ``max_backlog_ns`` behind — the finite queue in front of
        the SSD.
        """
        now = done_ns + self.think_ns
        if busy_until is not None and busy_until - now > self.max_backlog_ns:
            now = busy_until - self.max_backlog_ns
        return now


class CacheBench:
    """Replays traces against a hybrid cache and reports RunResults."""

    def __init__(self, config: Optional[ReplayConfig] = None) -> None:
        self.config = config or ReplayConfig()

    def run(
        self,
        cache: HybridCache,
        trace: Trace,
        *,
        name: Optional[str] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> RunResult:
        """Replay ``trace`` and return the collected metrics."""
        return replay(self.config, cache, trace, name=name, progress=progress)


def replay(
    cfg: ReplayConfig,
    cache: HybridCache,
    trace: Trace,
    *,
    name: Optional[str] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> RunResult:
    """The replay loop: the one place a trace meets a ``HybridCache``.

    Ops are issued strictly in trace order — they interact through the
    DRAM LRU, the engines, admission and the device clock.  The numpy
    columns are turned into plain ints one poll window at a time (no
    per-op scalar boxing, and memory stays flat however long the
    trace).
    """
    device = cache.device
    page = device.page_size
    ftl_latency = device.ftl.latency
    get_where = cache.get_where
    cache_set = cache.set
    cache_delete = cache.delete
    next_issue = cfg.next_issue_ns

    read_lat = LatencyReservoir()
    write_lat = LatencyReservoir()
    series: List[IntervalPoint] = []
    prev_snapshot = device.snapshot()

    total = len(trace)
    poll_every = cfg.poll_interval_ops
    interval = cfg.arrival_interval_ns
    schedule = trace.arrivals_ns

    now = 0
    for start in range(0, total, poll_every):
        window = slice(start, start + poll_every)
        ops = trace.ops[window].tolist()
        arrivals = (
            schedule[window].tolist()
            if schedule is not None
            else itertools.repeat(None)
        )
        # The window's timed latencies, handed to the reservoirs whole.
        reads: List[int] = []
        writes: List[int] = []
        read_add = reads.append
        write_add = writes.append
        for op, key, size, at in zip(
            ops,
            trace.keys[window].tolist(),
            trace.sizes[window].tolist(),
            arrivals,
        ):
            if at is not None:
                # Open loop, per-op schedule: the op arrives when the
                # schedule says, however far behind the device is — the
                # regime where overload actually queues.
                now = at
            if op == OP_GET:
                where, _, done = get_where(key, now)
                if where != HIT_DRAM:
                    # Reached flash (hit or full miss): a read latency.
                    read_add(done - now if done > now else 0)
                    if where == MISS:
                        done = cache_set(key, size, done)
            elif op == OP_SET:
                done = cache_set(key, size, now)
                write_add(done - now if done > now else 0)
            else:  # OP_DEL
                done = cache_delete(key, now)
            if at is None:
                if interval is not None:
                    # Open loop: the next op arrives on the fixed clock
                    # no matter when this one completed (latency soak
                    # mode — identical arrival schedules across arms).
                    now += interval
                else:
                    now = next_issue(done, ftl_latency.busy_until)

        read_lat.extend(reads)
        write_lat.extend(writes)
        ops_done = start + len(ops)
        if ops_done % poll_every == 0:
            snap = device.snapshot()
            series.append(
                IntervalPoint(
                    ops=ops_done,
                    host_gib_written=snap.host_pages_written * page / 1024**3,
                    interval_dlwa=snap.interval_dlwa(prev_snapshot),
                    cumulative_dlwa=snap.dlwa,
                )
            )
            prev_snapshot = snap
            if progress is not None:
                progress(ops_done, total)

    stats = device.stats
    steady = steady_state_dlwa(series)
    health = device.get_health_log()
    return RunResult(
        name=name or trace.name,
        fdp=device.fdp_enabled and cache.io.allocator.placement_enabled,
        ops=total,
        sim_seconds=now / 1e9,
        hit_ratio=cache.hit_ratio,
        dram_hit_ratio=cache.dram.hit_ratio,
        nvm_hit_ratio=cache.nvm_hit_ratio,
        alwa=cache.alwa,
        dlwa=stats.dlwa,
        steady_dlwa=steady if steady is not None else stats.dlwa,
        interval_series=series,
        gc_relocation_events=device.events.media_relocated_events,
        gc_relocated_pages=device.events.media_relocated_pages,
        gc_victims=stats.gc_victim_selections,
        host_pages_written=stats.host_pages_written,
        nand_pages_written=stats.nand_pages_written,
        energy_kwh=device.energy_kwh(now),
        p50_read_us=read_lat.p50_us(),
        p99_read_us=read_lat.p99_us(),
        p50_write_us=write_lat.p50_us(),
        p99_write_us=write_lat.p99_us(),
        media_errors=health.media_errors,
        read_errors=cache.read_errors,
        write_errors=cache.write_errors,
        write_drops=cache.write_drops,
        io_retries=cache.io.read_retries + cache.io.write_retries,
        retired_superblocks=health.retired_superblocks,
        available_spare_pct=health.available_spare_pct,
        flash_admits=cache.flash_admits,
        flash_rejects=cache.flash_rejects,
        flash_admit_ratio=cache.config.admission.admit_ratio,
    )
