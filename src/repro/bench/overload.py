"""Overload soak: flash crowd vs the load governor, open loop.

The overload-robustness headline experiment.  A flash crowd
(:class:`~repro.workloads.adversarial.FlashCrowd`) hits a small fleet
through **open-loop** replay — ops arrive on the trace's schedule no
matter how far behind the devices fall, so an under-provisioned burst
grows real queues instead of throttling the workload.  Two arms replay
the identical trace (same seed, same arrival schedule):

* **governor-off** — today's path, bit-identical to the pre-governor
  fleet.  During the burst every crowd miss fills, every fill is a
  flash write, GC amplifies it, and the device backlog — and with it
  p99 GET latency — grows without bound and *stays* collapsed after
  the burst ends (the backlog must drain through the same saturated
  device).
* **governor-on** — :class:`~repro.fleet.governor.LoadGovernor` senses
  the backlog, walks HEALTHY → BROWNOUT → SHED, and sheds writes
  (LOC admissions first, then whole SETs) while never touching GETs.
  Shed fills become later misses — which are cheap (bloom-side, no
  flash I/O) — so read service stays bounded and p99 returns to the
  pre-burst level once the crowd passes.  The price is a higher miss
  ratio: the explicit graceful-degradation trade.

The gates are the brownout contract (see :func:`run_overload_soak`).

The standing regression sweep beside it, every
:data:`~repro.workloads.adversarial.SCENARIOS` row × FDP on/off on one
device, is ``repro.bench.figures.FIGURES["overload_matrix"]``: run it
as ``run_sweep(FIGURES["overload_matrix"], on_error="record")`` for
DLWA, p99 and miss ratio per cell.

``python -m repro.bench soak overload [--smoke]`` runs the soak.
"""

from __future__ import annotations

from typing import Optional

from ..fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    FleetReplayConfig,
    GovernorConfig,
)
from ..workloads.adversarial import FlashCrowd, Scenario
from .fleet import SMOKE_SCALE, default_fleet_specs, fleet_trace
from .metrics import Gate, SoakResult
from .runner import Scale, ops_or_default, point_seed
from .soak import layout, replay_windows, window_gate

__all__ = [
    "OVERLOAD_SCALE",
    "PER_SHARD_INTERVAL_NS",
    "make_crowd_trace",
    "run_overload_soak",
]

# Per-shard device scale for the soak fleet; shares the fleet soak's
# smoke shape so per-shard GC pressure is real at CI size.
OVERLOAD_SCALE = SMOKE_SCALE

# Fleet-wide arrival interval is this divided by the shard count, so
# per-shard load is invariant as the fleet grows.  100 µs/shard-op is
# roughly 2× the latency soak's near-critical 200 µs single-device
# rate's headroom: benign traffic rides comfortably, and the crowd's
# compressed gaps push the write path over the cliff.
PER_SHARD_INTERVAL_NS = 200_000

# Burst shape: starts at 40% of the trace, lasts 25%, half the ops in
# the window concentrate on a fresh 4096-key crowd at 8× arrival rate.
# The crowd working set (4096 keys × ~2 KiB) deliberately exceeds the
# smoke fleet's DRAM, so crowd traffic is flash traffic.
_CROWD = dict(
    start_frac=0.4,
    duration_frac=0.25,
    crowd_keys=4096,
    crowd_fraction=0.5,
    arrival_speedup=8.0,
    size_range=(512, 8192),
)


def make_crowd_trace(
    num_shards: int,
    total_ops: int,
    *,
    workload: str = "kvcache",
    scale: Scale = OVERLOAD_SCALE,
    utilization: float = 0.9,
    seed: int = 0,
) -> tuple:
    """Build the soak's adversarial trace; returns ``(trace, scenario)``.

    The base trace is the fleet soak's (:func:`~repro.bench.fleet.fleet_trace`).
    """
    base = fleet_trace(workload, num_shards, scale, utilization, total_ops, seed)
    crowd = FlashCrowd(
        base_interval_ns=max(1, PER_SHARD_INTERVAL_NS // num_shards),
        seed=seed,
        **_CROWD,
    )
    scenario = Scenario("flashcrowd", (crowd,))
    return scenario.apply(base), scenario


def run_overload_soak(
    *,
    num_shards: int = 4,
    workload: str = "kvcache",
    num_ops: Optional[int] = None,
    ops_per_shard: int = 20_000,
    utilization: float = 0.9,
    scale: Scale = OVERLOAD_SCALE,
    seed: Optional[int] = None,
    governor: Optional[GovernorConfig] = None,
    tolerance: float = 0.5,
    collapse_factor: float = 3.0,
    burst_advantage: float = 1.5,
    verbose: bool = False,
) -> SoakResult:
    """Run the flash-crowd soak, governor-on vs governor-off.

    Deterministic end to end: trace, arrival schedule, crowd keyspace,
    and ring placement all derive from ``seed`` (default
    ``point_seed("overload_soak", 0)``), and both arms share every one
    of them.  ``tolerance`` judges the governor-on arm's recovery
    against its own pre-burst window — p99 over a few-thousand-op
    window jitters with GC phase, so the default is deliberately loose
    (50%) next to the collapse it must distinguish from (governor-off
    lands ~10× over baseline on the default shape).

    Gates (the brownout contract):

    * **p99_bounded** — the governor-on burst p99 stays at least
      ``burst_advantage``× below the governor-off arm's (no unbounded
      queue growth while shedding is active);
    * **p99_recovered** — the governor-on post-burst p99 returns to
      within ``tolerance`` of its own pre-burst window;
    * **off_collapsed** — the governor-off arm *fails* to recover: its
      post-burst p99 stays at least ``collapse_factor``× above its
      pre-burst window (the arm proving the overload is real — if
      governor-off shrugs the burst off, the scenario is too gentle for
      the soak to claim anything);
    * **governor_engaged** — the governor actually shed load, so the
      pass is attributable to admission control, not luck.

    The miss-ratio column documents the price of graceful degradation:
    shed fills become later misses — serve more misses, never let reads
    queue unboundedly.
    """
    if seed is None:
        seed = point_seed("overload_soak", 0)
    total = ops_or_default(num_ops, ops_per_shard * num_shards)
    specs = default_fleet_specs(num_shards, scale=scale, utilization=utilization)
    trace, scenario = make_crowd_trace(
        num_shards, total, workload=workload, scale=scale, utilization=utilization, seed=seed
    )
    crowd = scenario.transforms[0]
    segments = layout(total, "burst", *crowd._window(total))

    rows, fleets = [], {}
    for arm, config in (("on", governor or GovernorConfig()), ("off", None)):
        fleets[arm] = FleetCache(
            [spec.build() for spec in specs], FleetConfig(ring_seed=seed, governor=config)
        )
        rows += replay_windows(
            FleetDriver(fleets[arm], FleetReplayConfig()),
            trace,
            segments,
            arm=arm,
            label=lambda start, stop: crowd.window_label(start, stop, total),
            verbose=verbose,
        )

    counters = fleets["on"].governor_counters()
    shed = int(counters["shed_sets"]) + int(counters["shed_loc_admissions"])
    gates = [
        window_gate("p99_bounded", rows, "off:burst", ">=", burst_advantage, "on:burst"),
        window_gate("p99_recovered", rows, "on:recovered", "<=", 1.0 + tolerance, "on:pre"),
        window_gate("off_collapsed", rows, "off:recovered", ">=", collapse_factor, "off:pre"),
        Gate("governor_engaged", shed > 0, f"{shed} writes shed"),
    ]
    rejections = {
        f"{arm}:{queue}": count
        for arm, fleet in fleets.items()
        for queue, count in fleet.queue_rejections().items()
    }
    return SoakResult(
        soak="overload",
        params=dict(
            num_shards=num_shards, ops=total, seed=seed, scenario=scenario.name,
            tolerance=tolerance, collapse_factor=collapse_factor, burst_advantage=burst_advantage,
        ),
        columns=(
            "window", "ops", "miss_ratio", "read_p99_ns", "max_backlog_ns",
            "shed_sets", "shed_loc_admissions", "flash_crowd",
        ),
        rows=rows,
        gates=gates,
        evidence={"governor_counters": counters, "queue_rejections": rejections},
    )
