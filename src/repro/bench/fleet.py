"""Fleet shard-loss soak: kill a shard mid-run, prove recovery.

The headline robustness experiment for the fleet subsystem
(:mod:`repro.fleet`): replay one trace against an 8–16-shard cluster,
kill one shard at the halfway point with no warning and no drain, and
require that

* the fleet keeps serving — shard failures surface as misses, never
  as exceptions or lost operations;
* service quality recovers — the final measurement window's miss
  ratio and fleet-merged p99 read latency return to within
  ``tolerance`` of the pre-kill steady state, as survivors re-fill
  the dead shard's keyspace;
* placement stays exactly-once — a full resident-key audit across
  survivors finds zero misplaced keys, zero duplicates, and zero
  shadow-map mismatches (PR 2's crash-soak methodology, lifted from
  one device to the cluster).

Measurement uses three equal windows on one continuous run (see
:mod:`repro.bench.soak`): ``pre`` (just before the kill), ``spike``
(just after), ``recovered`` (the end of the run).

``python -m repro.bench soak fleet [--smoke]`` runs it from the shell.
"""

from __future__ import annotations

from typing import List, Optional

from ..fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    FleetHealthMonitor,
    FleetReplayConfig,
    ScriptedShardEvent,
    ShardSpec,
)
from ..workloads.trace import Trace
from .metrics import Gate, SoakResult
from .runner import Scale, make_trace, ops_or_default, point_seed
from .soak import layout, replay_windows, window_gate

__all__ = [
    "FLEET_SCALE",
    "SMOKE_SCALE",
    "default_fleet_specs",
    "fleet_trace",
    "run_fleet_soak",
]

# Per-shard device scale: small enough that an 8-shard soak stays in
# CI budget, large enough for real GC pressure on every shard.
FLEET_SCALE = Scale(num_superblocks=64)
SMOKE_SCALE = Scale(num_superblocks=48)


def default_fleet_specs(
    num_shards: int,
    *,
    mix: str = "fdp",
    scale: Scale = FLEET_SCALE,
    utilization: float = 0.9,
    seed: Optional[int] = None,
) -> List[ShardSpec]:
    """Build the soak's shard specs (ids sorted, every one a ``mix`` backend).

    ``seed`` derives a distinct per-shard ``admission_seed`` so that a
    randomized admission policy on any shard replays the same decision
    stream run to run — and shards never share an RNG stream.  ``None``
    leaves admission seeds unset (the historical behaviour).
    """
    if num_shards < 2:
        raise ValueError("a fleet soak needs at least 2 shards")
    return [
        ShardSpec(
            f"shard{i:02d}",
            backend=mix,
            utilization=utilization,
            scale=scale,
            admission_seed=None if seed is None else point_seed(f"fleet_admission_{seed}", i),
        )
        for i in range(num_shards)
    ]


def fleet_trace(
    workload: str,
    num_shards: int,
    scale: Scale,
    utilization: float,
    num_ops: int,
    seed: int,
) -> Trace:
    """A trace whose working set tracks the fleet's aggregate NVM
    capacity, so steady state exercises flash, not just DRAM."""
    per_shard_nvm = int(scale.geometry().logical_bytes * utilization)
    return make_trace(
        workload, per_shard_nvm * num_shards, scale, num_ops=num_ops, seed=seed
    )


def run_fleet_soak(
    *,
    num_shards: int = 8,
    mix: str = "fdp",
    workload: str = "kvcache",
    num_ops: Optional[int] = None,
    ops_per_shard: int = 20_000,
    utilization: float = 0.9,
    scale: Scale = FLEET_SCALE,
    seed: Optional[int] = None,
    tolerance: float = 0.10,
    trace: Optional[Trace] = None,
    verbose: bool = False,
) -> SoakResult:
    """Run the shard-loss soak and return the verdict.

    Deterministic end to end: the trace derives from ``seed`` (default
    ``point_seed("fleet_soak", 0)``), the kill victim from the seed and
    membership, and the kill op index from ``num_ops`` — two runs with
    the same arguments produce identical results.

    The trace length defaults to ``ops_per_shard * num_shards`` so
    per-shard load — and with it each device's GC regime — stays
    constant as the fleet grows; a fixed total would leave a large
    fleet's devices still filling when the run ends, and a fleet that
    never reaches GC has no tail latency to recover.

    The ``recovered`` window is judged against ``control``: the same
    window of an identical fleet replaying the identical trace *without*
    the kill — the counterfactual "what would service look like now had
    the shard survived".  A single pre-kill window cannot serve as the
    baseline because per-window p99 carries ±20% GC-burst noise even on
    an undisturbed fleet (see EXPERIMENTS.md); the paired control
    cancels that drift.  The raw ``pre`` window is still reported for
    the spike narrative.
    """
    if seed is None:
        seed = point_seed("fleet_soak", 0)
    total = ops_or_default(num_ops, ops_per_shard * num_shards)
    specs = default_fleet_specs(
        num_shards, mix=mix, scale=scale, utilization=utilization, seed=seed
    )
    # Seed-driven victim selection over the sorted membership — any
    # shard must be killable, so the victim rotates with the seed.
    shard_ids = sorted(spec.shard_id for spec in specs)
    victim = shard_ids[seed % len(shard_ids)]
    # The scripted kill fires on the first op after the pre window, so
    # pre is measured on the intact fleet and spike starts at the loss.
    kill_at = total // 2
    segments = layout(total, "spike", kill_at)
    if trace is None:
        trace = fleet_trace(workload, num_shards, scale, utilization, total, seed)
    if len(trace) < total:
        raise ValueError("trace shorter than the requested op count")

    fleet, control_fleet = (
        FleetCache([spec.build() for spec in specs], FleetConfig(ring_seed=seed))
        for _ in range(2)
    )
    monitor = FleetHealthMonitor(fleet, plan=[ScriptedShardEvent(kill_at + 1, victim, "kill")])
    driver = FleetDriver(fleet, FleetReplayConfig(), monitor)
    rows = replay_windows(driver, trace, segments, verbose=verbose)
    driver = FleetDriver(control_fleet, FleetReplayConfig())
    control = replay_windows(driver, trace, segments, arm="control", verbose=verbose)[-1]
    rows.append(dict(control, window="control"))

    audit = fleet.verify_placement()
    kill_events = [t for t in monitor.transitions if t["event"] == "kill"]
    assert kill_events, "the scripted kill never fired"
    factor = 1.0 + tolerance
    clean = audit["misplaced"] == audit["duplicates"] == audit["shadow_mismatches"] == 0
    gates = [
        Gate("placement_clean", clean, " ".join(f"{k}={v}" for k, v in audit.items())),
        window_gate(
            "miss_ratio_recovered", rows, "recovered", "<=", factor, "control", column="miss_ratio"
        ),
        window_gate("p99_recovered", rows, "recovered", "<=", factor, "control"),
    ]
    evidence = {
        "killed_shard": victim,
        "kill_at_ops": kill_events[0]["ops_done"],
        **audit,
        "rebalance_moved_items": fleet.rebalance_moved_items,
        "storm_misses_total": fleet.storm_misses,
        "degraded_misses_total": fleet.degraded_misses,
        "dropped_sets": fleet.dropped_sets,
        "retries": fleet.retries,
        "transitions": list(monitor.transitions),
        "fleet_dlwa": fleet.fleet_dlwa(),
        "energy_kwh": fleet.energy_kwh(),
        "co2e_kg": fleet.co2e_kg(),
        "shard_rows": [fleet.shards[sid].stats_dict() for sid in shard_ids],
    }
    return SoakResult(
        soak="fleet",
        params=dict(num_shards=num_shards, mix=mix, ops=total, seed=seed, tolerance=tolerance),
        columns=(
            "window", "ops", "miss_ratio", "read_p99_ns", "storm_misses", "degraded_misses",
            "live_shards",
        ),
        rows=rows,
        gates=gates,
        evidence=evidence,
    )
