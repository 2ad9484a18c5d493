"""Policy-vs-placement ablation: admission × FDP × engine.

The paper's central claim is that *placement* (FDP RUH segregation) is
the cheap win for flash-cache DLWA; Flashield and Nemo (PAPERS.md) are
the strongest admission/engine counterpoints.  This bench answers the
ROADMAP question head on: **how much of FDP's DLWA win can smart
admission recover without FDP, and do the two compose?**

The matrix replays the {AcceptAll, threshold, survival} ×
{Kangaroo, Nemo} × {FDP off, FDP on} cells of
``repro.bench.figures.FIGURES["ablation"]`` through
:func:`~repro.bench.parallel.run_sweep`.  Every cell shares one
``point_seed`` trace and threads the same seed into the admission
policy's ``reseed`` (the PR 8 contract), so within a row the only
degree of freedom is the axis under test.  Cells report DLWA, miss
ratio, p99 read latency, and the realized admit ratio; the gates (see
:func:`run_ablation`) stress the paper's claim from both sides.

``python -m repro.bench soak ablation [--smoke] [--json PATH]`` runs
it from the shell.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from .driver import CacheBench, ReplayConfig
from .figures import FIGURES
from .metrics import Gate, SoakResult
from .parallel import PointFailure, SweepPoint, run_sweep
from .runner import Scale, build_experiment, default_chaos_config, make_trace, point_seed

__all__ = ["run_nemo_soak", "run_ablation"]

GATE_ENGINE = "kangaroo"


# ----------------------------------------------------------------------
# Nemo engine soaks: the PR 4 integrity ladder and the PR 5 scheduler
# overlay must apply to the third engine unchanged.
# ----------------------------------------------------------------------


def run_nemo_soak(
    *,
    seed: Optional[int] = None,
    num_ops: int = 20_000,
    scale: Scale,
    utilization: float,
) -> Dict[str, object]:
    """Drive the Nemo engine through the integrity and scheduler arms.

    * **integrity** — chaos fault injection (UECCs, program failures,
      erase-driven retirement) during replay, then a power cut and a
      warm restart followed by more traffic.  The engine must degrade
      media errors into misses (never exceptions), recover its index
      from per-page manifests, and leave FTL invariants intact.
    * **sched** — the multi-queue scheduler attached; replay must
      complete with a live p99 and intact invariants (Nemo's writes
      queue and arbitrate like any other consumer's).

    Returns a JSON-serializable report with ``ok`` plus per-arm
    evidence counters.
    """
    if seed is None:
        seed = point_seed("ablation_nemo_soak", 0)
    report: Dict[str, object] = {}

    # -- integrity arm ------------------------------------------------
    # The chaos profile at 10x the standing soak's rates: this arm is
    # a fraction of the chaos soak's length, and the gate needs enough
    # fired faults to prove the engine *absorbed* some (served misses,
    # raised nothing).
    faults = dataclasses.replace(
        default_chaos_config(seed & 0xFFFF or 0xFA17),
        read_uecc_rate=1e-3,
        program_fail_rate=1e-3,
    )
    cache = build_experiment(
        fdp=True,
        utilization=utilization,
        scale=scale,
        cache_overrides={"soc_engine": "nemo"},
        device_overrides={"faults": faults},
    )
    trace = make_trace(
        "kvcache", cache.config.nvm_bytes, scale, num_ops=num_ops, seed=seed
    )
    bench = CacheBench(ReplayConfig())
    bench.run(cache, trace, name="nemo integrity")
    cache.device.check_invariants()
    absorbed = cache.read_errors + cache.write_errors
    cache.device.power_cut()
    recovery = cache.recover()
    # Post-restart traffic: the recovered index must keep serving.
    tail = make_trace(
        "kvcache",
        cache.config.nvm_bytes,
        scale,
        num_ops=max(2_000, num_ops // 4),
        seed=seed + 1,
    )
    bench.run(cache, tail, name="nemo post-recovery")
    cache.device.check_invariants()
    soc_recovered = recovery["soc"]["items_recovered"]
    # Faults are mostly transient, so the device-layer retry ladder
    # handles them before the engine sees a MediaError; either rung
    # counts as the ladder working.  (Engine-level degradation —
    # MediaError → dropped page, never an exception — is pinned
    # deterministically in tests/test_nemo.py.)
    handled = absorbed + cache.io.read_retries + cache.io.write_retries
    integrity_ok = (
        cache.device.stats.media_errors > 0  # chaos actually fired
        and handled > 0  # ... and the ladder handled it
        and soc_recovered > 0  # warm restart rebuilt the Nemo index
    )
    report["integrity"] = {
        "ok": integrity_ok,
        "media_errors": cache.device.stats.media_errors,
        "errors_absorbed": absorbed,
        "io_retries": cache.io.read_retries + cache.io.write_retries,
        "soc_items_recovered": soc_recovered,
        "pages_recovered": recovery["soc"].get("pages_recovered", 0),
    }

    # -- scheduler arm ------------------------------------------------
    cache = build_experiment(
        fdp=True,
        utilization=utilization,
        scale=scale,
        cache_overrides={"soc_engine": "nemo"},
        device_overrides={"sched": True},
    )
    trace = make_trace(
        "kvcache", cache.config.nvm_bytes, scale, num_ops=num_ops, seed=seed
    )
    result = bench.run(cache, trace, name="nemo sched")
    cache.device.check_invariants()
    sched_ok = (
        result.p99_read_us > 0
        and cache.soc.flash_writes > 0  # the engine actually wrote
    )
    report["sched"] = {
        "ok": sched_ok,
        "p99_read_us": result.p99_read_us,
        "soc_flash_writes": cache.soc.flash_writes,
        "soc_hit_ratio": cache.soc.hit_ratio,
    }
    report["ok"] = integrity_ok and sched_ok
    return report


def run_ablation(
    *,
    points: Sequence[SweepPoint] = FIGURES["ablation"],
    seed: Optional[int] = None,
    recovery_threshold: float = 0.2,
    compose_tolerance: float = 0.02,
    soak_ops: int = 20_000,
    workers: Optional[int] = None,
) -> SoakResult:
    """Run the matrix ``points`` + Nemo soaks; failures recorded, not raised.

    ``points`` are the ablation's cells (the smoke run passes them
    shrunk); ``seed`` replaces their shared seed.  The Nemo soaks run
    on the cells' device and utilization.

    Gates, judged on the ``GATE_ENGINE`` (Kangaroo — the paper's
    architecture) cells:

    * **cells_completed** — every matrix cell ran;
    * **survival_recovers** — survival admission without FDP recovers
      at least ``recovery_threshold`` of the DLWA gap AcceptAll/non-FDP
      leaves above the ideal 1.0 (admission is *not* nothing —
      Flashield's point);
    * **composes** — survival + FDP lands at or below the better of
      the two single levers plus ``compose_tolerance`` (the paper's
      "complementary, not competing" framing);
    * **nemo_soak_ok** — the Nemo engine completed the integrity
      (chaos-fault replay + warm restart) and scheduler soak arms with
      invariants intact (the engine seam holds for a third engine, not
      just the two that existed when it was cut).

    ``recovery_threshold`` is deliberately conservative: survival
    admission recovers well over half the non-FDP DLWA gap at default
    knobs, but the gate only claims "measurable" (≥20%) so workload
    drift doesn't flake CI.  ``compose_tolerance`` absorbs DLWA
    measurement noise around 1.0 in the FDP cells.  The miss-ratio
    column reports what admission *costs*: survival buys its DLWA
    recovery with extra misses, the trade the paper's placement
    approach avoids.
    """
    if seed is not None:
        points = [dataclasses.replace(p, kwargs={**p.kwargs, "seed": seed}) for p in points]
    shape = points[0].kwargs  # every cell's device, utilization and run length
    seed = points[0].seed
    results = run_sweep(points, workers=workers, on_error="record")
    rows: List[Dict[str, object]] = []
    failures: List[str] = []
    for r in results:
        if isinstance(r, PointFailure):
            failures.append(r.summary_row())
            continue
        rows.append({
            "cell": r.name,
            **{k: getattr(r, k) for k in ("dlwa", "steady_dlwa", "p99_read_us", "alwa")},
            "miss_ratio": 1.0 - r.hit_ratio,
            "admit_ratio": r.flash_admit_ratio,
            "nand_pages_written": r.nand_pages_written,
            "host_pages_written": r.host_pages_written,
        })
    nemo_soak = run_nemo_soak(
        seed=seed + 1, num_ops=soak_ops, scale=shape["scale"], utilization=shape["utilization"]
    )

    dlwa = {row["cell"]: row["dlwa"] for row in rows}
    base = dlwa.get(f"acceptall {GATE_ENGINE} Non-FDP")
    surv = dlwa.get(f"survival {GATE_ENGINE} Non-FDP")
    fdp = dlwa.get(f"acceptall {GATE_ENGINE} FDP")
    both = dlwa.get(f"survival {GATE_ENGINE} FDP")
    # Share of the non-FDP DLWA gap survival admission closes.
    recovered = 0.0
    if base is not None and surv is not None and base > 1.0:
        recovered = (base - surv) / (base - 1.0)
    composes = None not in (surv, fdp, both) and (
        both <= min(surv, fdp) + compose_tolerance
    )
    gates = [
        Gate("cells_completed", not failures, "; ".join(failures)),
        Gate(
            "survival_recovers",
            recovered >= recovery_threshold,
            f"recovered {recovered:.0%} of the gap (needs {recovery_threshold:.0%})",
        ),
        Gate("composes", composes, f"survival+FDP <= best lever +{compose_tolerance:g}"),
        Gate(
            "nemo_soak_ok",
            bool(nemo_soak["ok"]),
            " ".join(f"{arm} ok={nemo_soak[arm]['ok']}" for arm in ("integrity", "sched")),
        ),
    ]
    return SoakResult(
        soak="ablation",
        params=dict(
            ops=shape["num_ops"], seed=seed, gate_engine=GATE_ENGINE,
            recovery_threshold=recovery_threshold, compose_tolerance=compose_tolerance,
        ),
        columns=("cell", "dlwa", "steady_dlwa", "miss_ratio", "p99_read_us", "admit_ratio"),
        rows=rows,
        gates=gates,
        evidence=dict(recovered_fraction=recovered, nemo_soak=nemo_soak, failures=failures),
    )
