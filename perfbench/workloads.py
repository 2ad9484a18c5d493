"""The five benchmark workloads: what each builds, replays and reports.

A workload is set up from ``(seed, num_ops)`` alone; the program under
test receives only the generated :class:`~repro.workloads.trace.Trace`.
All of them use ``AcceptAll`` admission, the set-associative SOC and
the replay defaults (``ReplayConfig()`` / ``FleetReplayConfig()``).

``kv_fdp``, ``kv_nonfdp`` and ``kv_fdp_kernel`` share one trace group,
so the same ``--seed`` gives them the identical trace.
"""

from __future__ import annotations

import dataclasses
import math
from functools import partial
from operator import attrgetter
from typing import Callable, Dict

from repro import bench
from repro.bench import CacheBench, DEFAULT_SCALE, Scale, build_experiment, point_seed
from repro.fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    FleetReplayConfig,
    ShardSpec,
)
from repro.kernel import KernelBench, TraceArrays
from repro.ssd.sched import LatencyHistogram

#: Host time is taken per chunk of this many ops (the replay loops'
#: default progress cadence, ``ReplayConfig().poll_interval_ops``).
CHUNK_OPS = 50_000
SMOKE_OPS = 20_000

#: Open-loop arrival interval of ``fleet4_open``: 10 simulated kops/s.
FLEET_ARRIVAL_NS = 100_000
FLEET_SCALE = Scale(num_superblocks=128)
FLEET_BACKENDS = ("fdp", "nonfdp", "fdp", "nonfdp")

OnChunk = Callable[[], None]


def trace_seed(group: str, seed: int) -> int:
    return point_seed(f"perfbench:{group}", seed)


class SingleCacheRun:
    """One HybridCache over one device, replayed closed loop."""

    def __init__(
        self,
        seed: int,
        num_ops: int,
        *,
        group: str,
        trace_kind: str,
        fdp: bool,
        utilization: float,
        kernel: bool = False,
    ) -> None:
        self.num_ops = num_ops
        self.cache = build_experiment(fdp=fdp, utilization=utilization)
        # The write-only generator oversamples a kvcache stream by the
        # expected SET share plus a fixed 1024 ops and strips the GETs,
        # which on about one seed in five leaves it short of `num_ops`
        # (the SET count of 3.5M draws has a standard deviation of ~750).
        # Ask it for ~9 of those deviations more and cut to length, so
        # every seed replays exactly `num_ops`.  The kvcache generator is
        # exact, and asking it for more would change its whole stream.
        spare_ops = 8 * math.isqrt(num_ops) if trace_kind == "wo-kvcache" else 0
        # Looked up on the package at call time so a tracer's wrapper
        # around make_trace is the one that runs.
        self.trace = bench.make_trace(
            trace_kind,
            self.cache.config.nvm_bytes,
            DEFAULT_SCALE,
            num_ops=num_ops + spare_ops,
            seed=trace_seed(group, seed),
        ).slice(0, num_ops)
        self.arrays = TraceArrays.from_trace(self.trace) if kernel else None
        self.result = None

    def replay(self, on_chunk: OnChunk) -> None:
        def progress(done: int, total: int) -> None:
            on_chunk()

        if self.arrays is not None:
            self.result = KernelBench().run(self.cache, self.arrays, progress=progress)
        else:
            self.result = CacheBench().run(self.cache, self.trace, progress=progress)

    def ops_replayed(self) -> int:
        return self.result.ops

    def caches(self) -> list:
        return [self.cache]

    def sim_metrics(self) -> Dict[str, float]:
        r = self.result
        out = {
            "sim_dlwa": r.dlwa,
            "sim_p99_write_us": r.p99_write_us,
            "sim_kops_per_s": r.ops / r.sim_seconds / 1e3,
        }
        if self.cache.gets:
            out["sim_hit_ratio"] = r.hit_ratio
        if self.cache.nvm_gets:  # some GET reached flash
            out["sim_p50_read_us"] = r.p50_read_us
            out["sim_p99_read_us"] = r.p99_read_us
        return out

    def failed_ops(self) -> int:
        r = self.result
        return r.read_errors + r.write_errors + r.write_drops

    def checks(self) -> Dict[str, bool]:
        return {}

    def layer_counters(self) -> Dict[str, float]:
        return {}


class FleetRun:
    """Four shards behind the router, replayed open loop at a fixed rate."""

    def __init__(self, seed: int, num_ops: int) -> None:
        self.num_ops = num_ops
        tseed = trace_seed("fleet", seed)
        specs = [
            ShardSpec(
                f"shard{i:02d}",
                backend=backend,
                utilization=0.9,
                scale=FLEET_SCALE,
                sched=True,
                admission_seed=point_seed(f"perfbench:fleet_admission:{seed}", i),
            )
            for i, backend in enumerate(FLEET_BACKENDS)
        ]
        self.fleet = FleetCache(
            [spec.build() for spec in specs], FleetConfig(ring_seed=tseed)
        )
        per_shard_nvm = int(FLEET_SCALE.geometry().logical_bytes * 0.9)
        self.trace = bench.make_trace(
            "kvcache",
            per_shard_nvm * len(specs),
            FLEET_SCALE,
            num_ops=num_ops,
            seed=tseed,
        )
        self.driver = FleetDriver(
            self.fleet, FleetReplayConfig(arrival_interval_ns=FLEET_ARRIVAL_NS)
        )
        self.replayed = 0

    def replay(self, on_chunk: OnChunk) -> None:
        # FleetDriver has no progress hook; it is built for segment-by-
        # segment replay on one op timeline, so each chunk is one run().
        for lo in range(0, self.num_ops, CHUNK_OPS):
            hi = min(lo + CHUNK_OPS, self.num_ops)
            self.replayed += self.driver.run(self.trace.slice(lo, hi)).ops
            if hi < self.num_ops:
                on_chunk()

    def ops_replayed(self) -> int:
        return self.replayed

    def caches(self) -> list:
        return [s.backend.cache for s in self.fleet.shards.values()]

    def _shards(self, backend: str) -> list:
        return [s for s in self.fleet.shards.values() if s.spec.backend == backend]

    @staticmethod
    def _dlwa(shards: list) -> float:
        host = nand = 0
        for shard in shards:
            h, n = shard.page_counters()
            host += h
            nand += n
        return nand / host if host else 1.0

    @staticmethod
    def _read_hist(shards: list) -> LatencyHistogram:
        merged = LatencyHistogram()
        for shard in shards:
            merged.merge(shard.merged_histogram("read"))
        return merged

    def sim_metrics(self) -> Dict[str, float]:
        fleet = self.fleet
        out = {"sim_dlwa": fleet.fleet_dlwa()}
        writes = fleet.merged_histogram("write")
        if writes.count:
            out["sim_p99_write_us"] = writes.p99() / 1e3
        if fleet.gets:
            out["sim_hit_ratio"] = 1.0 - fleet.miss_ratio
        reads = fleet.merged_histogram("read")
        if reads.count:
            out["sim_p50_read_us"] = reads.p50() / 1e3
            out["sim_p99_read_us"] = reads.p99() / 1e3
        return out

    def failed_ops(self) -> int:
        failed = self.fleet.degraded_misses + self.fleet.dropped_sets
        for cache in self.caches():
            failed += cache.read_errors + cache.write_errors + cache.write_drops
        return failed

    def checks(self) -> Dict[str, bool]:
        audit = self.fleet.verify_placement()
        return {
            "placement_exact": not (
                audit["misplaced"] or audit["duplicates"] or audit["shadow_mismatches"]
            )
        }

    def layer_counters(self) -> Dict[str, float]:
        fleet = self.fleet
        last_arrival = (self.num_ops - 1) * FLEET_ARRIVAL_NS
        backlog_ns = max(
            max(0, shard.busy_until() - last_arrival)
            for shard in fleet.shards.values()
        )
        out = {
            "fleet.router.retries": fleet.retries,
            "fleet.router.degraded_misses": fleet.degraded_misses,
            "fleet.router.dropped_sets": fleet.dropped_sets,
            "fleet.driver.final_backlog_ms": backlog_ns / 1e6,
            "ssd.sched.queue_rejections": sum(fleet.queue_rejections().values()),
        }
        for backend in ("fdp", "nonfdp"):
            shards = self._shards(backend)
            out[f"fleet.shard.dlwa_{backend}"] = self._dlwa(shards)
            reads = self._read_hist(shards)
            if reads.count:
                out[f"fleet.shard.p99_read_us_{backend}"] = reads.p99() / 1e3
        return out


def layer_counters(run) -> Dict[str, float]:
    """Exact per-layer counts and ratios, summed over the run's caches.

    A ratio whose denominator is zero on this workload is left out.
    """
    caches = run.caches()

    def total(path: str) -> int:
        return sum(attrgetter(path)(c) for c in caches)

    out: Dict[str, float] = {}

    def ratio(name: str, num: float, den: float) -> None:
        if den:
            out[name] = num / den

    dram_hits = total("dram.hits")
    ratio("cache.dram.hit_ratio", dram_hits, dram_hits + total("dram.misses"))
    out["cache.dram.evictions"] = total("dram.evictions")
    ratio(
        "cache.admission.admit_ratio",
        total("config.admission.admitted"),
        total("config.admission.offered"),
    )
    ratio("cache.soc.bloom_reject_ratio", total("soc.bloom_rejects"), total("soc.lookups"))
    out["cache.soc.flash_reads"] = total("soc.flash_reads")
    out["cache.soc.flash_writes"] = total("soc.flash_writes")
    out["cache.soc.evictions"] = total("soc.evictions")
    out["cache.loc.flash_reads"] = total("loc.flash_reads")
    out["cache.loc.flash_writes"] = total("loc.flash_writes")
    out["cache.loc.evicted_regions"] = total("loc.evicted_regions")
    ratio("cache.hybrid.alwa", total("io.bytes_written"), total("app_set_bytes"))
    out["core.device_layer.io_retries"] = total("io.read_retries") + total(
        "io.write_retries"
    )
    out["ssd.ftl.host_pages_written"] = total("device.stats.host_pages_written")
    out["ssd.ftl.nand_pages_written"] = total("device.stats.nand_pages_written")
    out["ssd.ftl.gc_victims"] = total("device.stats.gc_victim_selections")
    out["ssd.ftl.gc_relocated_pages"] = total("device.events.media_relocated_pages")
    scheds = [c.device.scheduler for c in caches if c.device.scheduler is not None]
    if scheds:
        out["ssd.sched.host_wait_ns"] = sum(s.host_wait_ns for s in scheds)
        out["ssd.sched.gc_blocked_commands"] = sum(
            s.gc_blocked_commands for s in scheds
        )
    out.update(run.layer_counters())
    return out


def common_checks(run) -> Dict[str, bool]:
    """The correctness checks every workload runs after its replay."""
    checks = {"all_ops_replayed": run.ops_replayed() == run.num_ops}
    invariants_hold = True
    nand_ge_host = True
    for cache in run.caches():
        try:
            cache.device.check_invariants()
        except AssertionError:
            invariants_hold = False
        stats = cache.device.stats
        if stats.nand_pages_written < stats.host_pages_written:
            nand_ge_host = False
    checks["device_invariants"] = invariants_hold
    checks["nand_ge_host_pages"] = nand_ge_host
    checks.update(run.checks())
    return checks


@dataclasses.dataclass(frozen=True)
class Workload:
    """``build(seed, num_ops)`` sets the run up; ``BENCHMARK.json`` says why."""

    name: str
    ops: int
    build: Callable[[int, int], object]


_KV = dict(group="kv", trace_kind="kvcache", utilization=0.9)

# 700k ops: below ~600k the non-FDP arms have not reached GC steady state.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("kv_fdp", 700_000, partial(SingleCacheRun, fdp=True, **_KV)),
        Workload("kv_nonfdp", 700_000, partial(SingleCacheRun, fdp=False, **_KV)),
        Workload("kv_fdp_kernel", 700_000, partial(SingleCacheRun, fdp=True, kernel=True, **_KV)),
        Workload(
            "wo_nonfdp",
            700_000,
            partial(SingleCacheRun, group="wo", trace_kind="wo-kvcache", fdp=False, utilization=1.0),
        ),
        Workload("fleet4_open", 400_000, FleetRun),
    )
}
