"""Tail-latency soak: FDP-on vs FDP-off under queue contention.

Reproduces the paper's second headline result (Figure 13's direction):
FDP segregation lowers p99 read latency because SOC reads stop
queueing behind GC traffic.  Both arms replay the *same seeded trace*
through the full stack — hybrid cache, FDP-aware device layer,
multi-queue scheduler — and the only difference is placement: the
Non-FDP arm mixes SOC and LOC into shared superblocks, so GC must
migrate live pages and its spans (migrations + erases) occupy the
flash channels host reads land on; the FDP arm's segregated reclaim
units mostly erase clean, so there are fewer and shorter spans to
collide with.

Latency figures come from the scheduler's per-queue log-bucketed
histograms, not the replay reservoir: bucket upper bounds are
deterministic integers, which is what lets ``tests/golden/
latency_*.json`` pin the percentiles exactly.

Run ``python -m repro.bench soak latency --smoke`` for the CI-sized
comparison (exits nonzero if the FDP arm fails to beat the Non-FDP arm
at ≥70% utilization).
"""

from __future__ import annotations

import sys
from typing import Dict, Optional

from ..cache.hybrid import HybridCache
from ..ssd.sched import SchedConfig
from .driver import CacheBench, ReplayConfig
from .metrics import Gate, SoakResult
from .runner import Scale, build_experiment, make_trace, ops_or_default, point_seed

__all__ = ["LATENCY_SCALE", "run_latency_soak"]

# Small enough that the two arms finish in CI minutes, large enough
# that the device wraps several times at high utilization so GC runs
# continuously through the measured window (64 MiB physical, 128-page
# superblocks — the same shape the chaos soak uses, with more blocks).
LATENCY_SCALE = Scale(num_superblocks=192, num_ops=240_000)

# Fixed-rate arrival clock for the open-loop replay (see
# ReplayConfig.arrival_interval_ns): identical arrival schedules in
# both arms make device-side contention the only degree of freedom,
# the way the paper measures tails at matched request rate.  200 µs/op
# keeps the median read at pure service time (~74 µs) while the
# write-hot channel stays busy enough that GC spans collide with the
# read tail — the regime Figure 13 measures.  Much faster saturates
# the open-superblock channel (queues grow without bound, medians in
# milliseconds); much slower idles the channels and the arms converge.
ARRIVAL_INTERVAL_NS = 200_000


def _harvest_arm(arm: str, fdp: bool, cache: HybridCache, ops: int) -> tuple:
    """One arm's row (merged read/write percentiles, scheduler
    telemetry) and evidence (per-queue percentiles, background time)."""
    sched = cache.device.scheduler
    assert sched is not None  # build_experiment attached it
    per_queue = {
        queue: {
            op: {"count": h.count, "p50": h.p50(), "p99": h.p99(), "p999": h.p999()}
            for op, h in sorted(hists.items())
        }
        for queue, hists in sorted(sched.histograms().items())
    }
    row: Dict[str, object] = {"arm": arm, "fdp": fdp, "ops": ops}
    for op in ("read", "write"):
        h = sched.merged_histogram(op)
        row[f"{op}_count"] = h.count
        row[f"{op}_p50_ns"] = h.p50()
        row[f"{op}_p99_ns"] = h.p99()
        row[f"{op}_p999_ns"] = h.p999()
    row["gc_blocked_commands"] = sched.gc_blocked_commands
    row["host_wait_ns"] = sched.host_wait_ns
    row["dlwa"] = cache.device.dlwa
    evidence = {"per_queue": per_queue, "background_ns": dict(sched.background_ns)}
    return row, evidence


def run_latency_soak(
    *,
    workload: str = "kvcache",
    utilization: float = 0.85,
    num_ops: Optional[int] = None,
    scale: Scale = LATENCY_SCALE,
    seed: Optional[int] = None,
    sched: Optional[SchedConfig] = None,
    warmup_ops: Optional[int] = None,
    verbose: bool = False,
) -> SoakResult:
    """Replay one seeded trace through both placement arms.

    ``seed`` defaults to ``point_seed("latency_soak", 0)`` per the
    sweep-seed contract; both arms share it, so the workloads are
    byte-identical and the only degree of freedom is placement.

    ``warmup_ops`` (default: a quarter of the trace) is replayed first
    and then the scheduler histograms are cleared, so the reported
    percentiles cover only the steady-state window.  The warm-up phase
    is *not* interchangeable across arms: the FDP arm's segregated SOC
    reclaim unit fills and erases earliest while the Non-FDP arm's
    first mixed GC comes later, so an unwarmed measurement compares
    different life stages.  (The paper likewise reports steady-state
    tails.)  Telemetry counters still cover the whole run.

    The one gate, ``fdp_p99_read_lower``, is the paper's direction:
    FDP-on p99 read strictly below FDP-off at ≥70% utilization.
    """
    if seed is None:
        seed = point_seed("latency_soak", 0)
    total_ops = ops_or_default(num_ops, scale.num_ops)
    if warmup_ops is None:
        warmup_ops = total_ops // 4
    if not 0 <= warmup_ops < total_ops:
        raise ValueError("warmup_ops must be in [0, num_ops)")
    rows, evidence = [], {}
    for fdp in (False, True):
        cache = build_experiment(
            fdp=fdp,
            utilization=utilization,
            scale=scale,
            device_overrides={"sched": sched if sched is not None else True},
        )
        trace = make_trace(workload, cache.config.nvm_bytes, scale, num_ops=num_ops, seed=seed)
        arm = "FDP" if fdp else "Non-FDP"
        device_sched = cache.device.scheduler

        def end_warmup(ops_done: int, total: int, *, _s=device_sched) -> None:
            if ops_done == warmup_ops:
                _s.clear_histograms()

        bench = CacheBench(
            ReplayConfig(
                arrival_interval_ns=ARRIVAL_INTERVAL_NS,
                # Fire the progress callback exactly at the warm-up
                # boundary (and multiples of it, which end_warmup
                # ignores).
                poll_interval_ops=warmup_ops or 50_000,
            )
        )
        result = bench.run(cache, trace, name=f"{workload} {arm}", progress=end_warmup)
        row, evidence[arm] = _harvest_arm(arm, fdp, cache, result.ops)
        rows.append(row)
        if verbose:
            print(result.summary_row(), file=sys.stderr)
    off, on = (row["read_p99_ns"] for row in rows)
    gain = off / on if on else (float("inf") if off else 1.0)
    evidence["p99_read_gain"] = gain
    return SoakResult(
        soak="latency",
        params={"workload": workload, "utilization": utilization, "seed": seed},
        columns=(
            "arm", "read_p50_ns", "read_p99_ns", "read_p999_ns",
            "write_p99_ns", "gc_blocked_commands", "dlwa",
        ),
        rows=rows,
        gates=[
            Gate(
                "fdp_p99_read_lower",
                utilization >= 0.70 and on < off,
                f"FDP {on / 1000:.0f}us vs Non-FDP {off / 1000:.0f}us "
                f"({gain:.2f}x) at util {utilization:.0%} (needs >= 70%)",
            )
        ],
        evidence=evidence,
    )
