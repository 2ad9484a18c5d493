"""Figure 5: interval DLWA over time, KV Cache, 50% device utilization.

Paper result: Non-FDP settles at ~1.3; FDP-based segregation at ~1.03
(a 1.3x reduction).  This bench replays the scaled KV Cache workload on
both arms and emits the interval-DLWA series the figure plots.
"""

from conftest import emit_table, ops_for, sweep_seed

from repro.bench import run_experiment


def test_fig05_dlwa_timeline(once):
    util = 0.5

    def run():
        return {
            fdp: run_experiment(
                "kvcache",
                fdp=fdp,
                utilization=util,
                num_ops=ops_for(util),
                seed=sweep_seed("fig05_dlwa_timeline", 0),
            )
            for fdp in (False, True)
        }

    results = once(run)
    non, fdp = results[False], results[True]

    lines = [
        "Figure 5: interval DLWA timeline, KV Cache @ 50% utilization",
        f"{'ops':>10} {'host GiB':>9} {'Non-FDP':>8} {'FDP':>6}",
    ]
    for a, b in zip(non.interval_series, fdp.interval_series):
        lines.append(
            f"{a.ops:>10} {a.host_gib_written:>9.2f} "
            f"{a.interval_dlwa:>8.2f} {b.interval_dlwa:>6.2f}"
        )
    lines.append(
        f"steady-state: Non-FDP {non.steady_dlwa:.2f} vs FDP "
        f"{fdp.steady_dlwa:.2f} "
        f"({non.steady_dlwa / fdp.steady_dlwa:.2f}x reduction; paper: 1.3x)"
    )
    emit_table("fig05_dlwa_timeline", lines)

    assert fdp.steady_dlwa < 1.05
    assert non.steady_dlwa > fdp.steady_dlwa
