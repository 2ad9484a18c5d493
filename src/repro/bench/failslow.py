"""Fail-slow soak: inject a slow die mid-run, prove gray-failure containment.

The headline robustness experiment for the fail-slow subsystem
(:mod:`repro.faults.failslow` + the fleet reaction path): replay one
trace against three identical fleets and degrade one die on one shard
mid-run in two of them.

* ``control`` — no fault, detector and deadlines ON.  Baseline tail
  *and* the false-positive check: its reaction counters must stay
  zero.
* ``detector-on`` — the fault plus the full reaction path: deadline-
  bounded GETs keep the closed loop from blocking on the slow shard,
  the gray-failure detector compares per-shard rolling p99 against the
  fleet median, and a sustained-slow verdict quarantines the victim
  through the retirement drain.  Its final window must land near the
  control's tail.
* ``detector-off`` — the same fault, no reaction (no deadline, no
  monitor): what gray failure costs an unprotected fleet.  Its final
  window must stay inflated — the arm that proves the fault is real.

The injected fault is pure timing (the overlay invariant, pinned by
tests/test_differential_failslow.py): the victim's device serves every
read correctly, SMART stays healthy, only completion times stretch —
exactly the hazard class SMART-driven monitoring cannot see.

``python -m repro.bench soak failslow [--smoke]`` runs it from the
shell.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Optional

from ..fleet import (
    FleetCache,
    FleetConfig,
    FleetDriver,
    FleetHealthMonitor,
    FleetReplayConfig,
    MonitorConfig,
)
from ..faults.failslow import FailSlowConfig
from ..workloads.trace import Trace
from .fleet import FLEET_SCALE, default_fleet_specs, fleet_trace
from .metrics import Gate, SoakResult
from .runner import Scale, ops_or_default, point_seed
from .soak import layout, replay_windows, window_gate, window_ops

__all__ = [
    "DEADLINE_NS",
    "GRAY_FLOOR_NS",
    "SLOW_MULTIPLIER",
    "run_failslow_soak",
]

# Read deadline: above the healthy fleet's worst observed read (~22 ms
# — a read parked behind a queued GC erase+migrate burst), far below
# the degraded die's tail, so the control arm never books a deadline
# miss while the slow die's 120 ms erase shadows blow through it.
DEADLINE_NS = 50_000_000
# Detector floor: healthy per-shard *rolling* p99 legitimately swings
# to ~4-8 ms when a GC burst lands inside the 512-sample window, so a
# pure peer-ratio test false-positives.  The floor sits above that
# healthy swing and below the victim's (deadline-censored) p99.
GRAY_FLOOR_NS = 20_000_000
# The injected degradation: one die's timings stretched 40x — the
# "order-of-magnitude slower, still working" gray-failure shape.
SLOW_MULTIPLIER = 40.0


def run_failslow_soak(
    *,
    num_shards: int = 4,
    workload: str = "kvcache",
    num_ops: Optional[int] = None,
    ops_per_shard: int = 30_000,
    utilization: float = 0.9,
    scale: Scale = FLEET_SCALE,
    seed: Optional[int] = None,
    slow_multiplier: float = SLOW_MULTIPLIER,
    deadline_ns: int = DEADLINE_NS,
    recovery_factor: float = 1.5,
    inflation_factor: float = 3.0,
    trace: Optional[Trace] = None,
    verbose: bool = False,
) -> SoakResult:
    """Run the three-arm fail-slow soak and return the verdict.

    Deterministic end to end: the trace derives from ``seed`` (default
    ``point_seed("failslow_soak", 0)``), the victim shard and slow die
    from the seed and membership, and the onset op index from
    ``num_ops`` — two runs with the same arguments produce identical
    results.  ``ops_per_shard`` defaults to 30k: long enough that the
    measurement windows (total/8) average over several GC cycles per
    shard — at 20k/shard the control's recovered window lands between
    GC bursts and reads artificially quiet, souring both ratio gates.

    Gates:

    * **contained** — detector-on's recovered p99 is within
      ``recovery_factor``× of the control's (quarantine removed the
      slow shard, survivors carry the traffic at healthy tails);
    * **off_inflated** — detector-off's recovered p99 stays at least
      ``inflation_factor``× above the control's (the arm proving the
      injected fault actually hurts — if it doesn't, the soak has
      nothing to contain);
    * **detector_fired** — detector-on detected and quarantined the
      victim, and booked nonzero deadline misses (the pass is
      attributable to the reaction path, not luck);
    * **counters_clean** — the control arm booked zero deadline
      misses, detections, and quarantines (reaction counters are
      nonzero only in faulted arms).
    """
    if seed is None:
        seed = point_seed("failslow_soak", 0)
    total = ops_or_default(num_ops, ops_per_shard * num_shards)

    # Every arm gets the same specs — the overlay is attached everywhere
    # but degrades nothing until the soak activates it on the victim, so
    # the control arm doubles as a live quiescent-overlay check.
    specs = [
        dataclasses.replace(spec, failslow=FailSlowConfig())
        for spec in default_fleet_specs(
            num_shards, scale=scale, utilization=utilization
        )
    ]
    shard_ids = sorted(spec.shard_id for spec in specs)
    victim = shard_ids[seed % len(shard_ids)]
    slow_die = seed % scale.geometry().dies

    fault_at = total // 2
    segments = layout(total, "fault", fault_at)
    # Detector cadence: adjacent polls must overlap the victim's
    # ~512-sample rolling window, or a GC-burst-driven slow episode
    # washes out of the window between polls and the confirmation
    # streak never forms (observed at 4 shards: the victim's p99
    # crossed the floor on isolated polls only).  At window // 16 the
    # per-shard sample window spans several polls, so a sustained
    # episode is seen by consecutive polls and the streak lands well
    # inside the fault + drain span.
    poll_interval_ops = max(250, window_ops(total) // 16)

    if trace is None:
        trace = fleet_trace(workload, num_shards, scale, utilization, total, seed)
    if len(trace) < total:
        raise ValueError("trace shorter than the requested op count")

    def inject(fleet: FleetCache) -> None:
        # Degrade the victim's die on its live overlay model, pinned to
        # the segment boundary instead of a closed-loop timestamp.
        model = fleet.shards[victim].backend.cache.device.failslow
        model.slow_die(slow_die, slow_multiplier)

    rows: List[Dict[str, object]] = []
    evidence: Dict[str, object] = dict(
        victim_shard=victim, slow_die=slow_die, fault_at_ops=fault_at
    )
    for arm, detector, faulted in (
        ("control", True, False),
        ("detector-on", True, True),
        ("detector-off", False, True),
    ):
        fleet = FleetCache(
            [spec.build() for spec in specs],
            FleetConfig(ring_seed=seed, deadline_ns=deadline_ns if detector else None),
        )
        monitor = None
        if detector:
            monitor = FleetHealthMonitor(
                fleet,
                MonitorConfig(
                    poll_interval_ops=poll_interval_ops,
                    latency_detector=True,
                    latency_floor_ns=GRAY_FLOOR_NS,
                ),
            )
        rows += replay_windows(
            FleetDriver(fleet, FleetReplayConfig(), monitor),
            trace,
            segments,
            arm=arm,
            at_event=functools.partial(inject, fleet) if faulted else None,
            verbose=verbose,
        )
        evidence[arm] = {
            "deadline_misses": fleet.deadline_misses,
            "gray_detections": monitor.gray_failure_detections if monitor else 0,
            "quarantines": monitor.quarantines if monitor else 0,
            "transitions": list(monitor.transitions) if monitor else [],
        }

    on, ctl = evidence["detector-on"], evidence["control"]
    reactions = ("deadline_misses", "gray_detections", "quarantines")
    baseline = "control:recovered"
    gates = [
        window_gate(
            "contained", rows, "detector-on:recovered", "<=", recovery_factor, baseline
        ),
        window_gate(
            "off_inflated", rows, "detector-off:recovered", ">=", inflation_factor, baseline
        ),
        Gate(
            "detector_fired",
            on["gray_detections"] >= 1 and on["quarantines"] >= 1 and on["deadline_misses"] > 0,
            " ".join(f"{k}={on[k]}" for k in reactions),
        ),
        Gate("counters_clean", all(ctl[k] == 0 for k in reactions)),
    ]
    return SoakResult(
        soak="failslow",
        params=dict(
            num_shards=num_shards, ops=total, seed=seed, slow_multiplier=slow_multiplier,
            deadline_ns=deadline_ns, recovery_factor=recovery_factor,
            inflation_factor=inflation_factor,
        ),
        columns=("window", "ops", "miss_ratio", "read_p99_ns", "deadline_misses", "live_shards"),
        rows=rows,
        gates=gates,
        evidence=evidence,
    )
