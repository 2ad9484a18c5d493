"""Figure 5: interval DLWA over time, KV Cache, 50% device utilization.

Paper result: Non-FDP settles at ~1.3; FDP-based segregation at ~1.03
(a 1.3x reduction).  This bench replays the scaled KV Cache workload on
both arms and emits the interval-DLWA series the figure plots.
"""

from conftest import emit_table, replay


def test_fig05_dlwa_timeline(once):
    results = once(lambda: replay("fig05_dlwa_timeline"))
    non, fdp = results["Non-FDP"], results["FDP"]

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
