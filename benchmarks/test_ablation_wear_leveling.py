"""Ablation: static wear leveling vs. none under FDP segregation.

Not a paper figure — a design-space check the simulator enables.  The
paper's endurance argument is entirely DLWA-based; real FTLs also run
static wear leveling, which *adds* migrations.  The check's finding:
under FDP segregation the SOC's few blocks absorb nearly all erases
while idle write points and cold LOC blocks pin the wear floor, so a
periodic leveler cannot close the spread — SOC churn re-opens the gap
faster than one leveling pass per period recycles a cold block.  What
the leveler *does* do is pay for the attempt: every pass migrates a
mostly-valid cold block, so NAND writes and total erases rise with no
compensating spread reduction.  That is quantified here, and it backs
the paper's design point that segregation (DLWA), not forced
migration, is what protects endurance in a flash cache.
"""

from conftest import emit_table

from repro.bench import DEFAULT_SCALE, CacheBench, build_experiment, make_trace
from repro.bench.figures import FIGURES, WEAR_THRESHOLD


def _run(point):
    """Replay one arm here, not in a worker: the table reads the
    device's wear counters, which a RunResult does not carry."""
    arm = dict(point.kwargs)
    num_ops = arm.pop("num_ops")
    cache = build_experiment(admission_seed=point.seed, **arm)
    trace = make_trace(
        point.workload,
        cache.config.nvm_bytes,
        arm.get("scale", DEFAULT_SCALE),
        num_ops=num_ops,
        seed=point.seed,
    )
    result = CacheBench().run(cache, trace, name=point.name)
    return result, cache.device.wear_stats()


def test_ablation_wear_leveling(once):
    points = FIGURES["ablation_wear_leveling"]
    results = once(lambda: {p.arm: _run(p) for p in points})

    lines = [
        "Ablation: static wear leveling under FDP segregation",
        f"{'leveling':>12} {'DLWA':>6} {'wear spread':>12} "
        f"{'max erases':>11} {'total erases':>13}",
    ]
    for label, (result, wear) in results.items():
        lines.append(
            f"{label:>12} {result.steady_dlwa:>6.2f} {wear.spread:>12} "
            f"{wear.max_erases:>11} {wear.total_erases:>13}"
        )
    off, lev = results["off"], results[f"threshold={WEAR_THRESHOLD}"]
    lines.append(
        "segregation concentrates erases; periodic leveling cannot close"
    )
    lines.append(
        "the spread at SOC churn rates and only adds migration wear"
    )
    emit_table("ablation_wear_leveling", lines)

    # The gap the leveler is chasing really exists: FDP segregation
    # concentrates erases far beyond the leveling threshold.
    assert off[1].spread > WEAR_THRESHOLD
    # ... and chasing it is not free: each pass relocates a mostly-
    # valid cold block, so the leveled arm burns strictly more NAND.
    assert lev[1].total_erases > off[1].total_erases
    assert lev[0].steady_dlwa > off[0].steady_dlwa
    # The premium stays moderate thanks to the pass-per-period rate
    # limit (an unthrottled leveler would turn every GC into a full
    # cold-block migration).
    assert lev[0].steady_dlwa < off[0].steady_dlwa + 1.0
