"""Figure 7: DLWA with the write-intensive Twitter cluster12 workload.

Paper result: FDP-based segregation achieves a DLWA of ~1 at both 50%
and 100% device utilization, while Non-FDP rises well above 1.
"""

from conftest import emit_table, replay

from repro.bench.figures import HALF_AND_FULL


def test_fig07_twitter_dlwa(once):
    results = once(lambda: replay("fig07_twitter", HALF_AND_FULL))

    lines = [
        "Figure 7: Twitter cluster12 interval DLWA (a: 50%, b: 100%)",
    ]
    for util in HALF_AND_FULL:
        lines.append(f"-- {util:.0%} device utilization --")
        lines.append(f"{'ops':>10} {'Non-FDP':>8} {'FDP':>6}")
        non, fdp = results[(util, "Non-FDP")], results[(util, "FDP")]
        for a, b in zip(non.interval_series, fdp.interval_series):
            lines.append(
                f"{a.ops:>10} {a.interval_dlwa:>8.2f} {b.interval_dlwa:>6.2f}"
            )
        lines.append(
            f"steady: Non-FDP {non.steady_dlwa:.2f} vs FDP "
            f"{fdp.steady_dlwa:.2f} (paper: FDP ~1)"
        )
    emit_table("fig07_twitter", lines)

    for util in HALF_AND_FULL:
        assert results[(util, "FDP")].steady_dlwa < 1.1
        assert (
            results[(util, "FDP")].steady_dlwa
            < results[(util, "Non-FDP")].steady_dlwa
        )
