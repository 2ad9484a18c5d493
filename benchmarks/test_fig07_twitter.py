"""Figure 7: DLWA with the write-intensive Twitter cluster12 workload.

Paper result: FDP-based segregation achieves a DLWA of ~1 at both 50%
and 100% device utilization, while Non-FDP rises well above 1.
"""

from conftest import emit_table, ops_for, sweep_seed

from repro.bench import run_experiment


def test_fig07_twitter_dlwa(once):
    def run():
        return {
            (util, fdp): run_experiment(
                "twitter",
                fdp=fdp,
                utilization=util,
                num_ops=ops_for(util),
                seed=sweep_seed("fig07_twitter", int(util == 1.0)),
            )
            for util in (0.5, 1.0)
            for fdp in (False, True)
        }

    results = once(run)

    lines = [
        "Figure 7: Twitter cluster12 interval DLWA (a: 50%, b: 100%)",
    ]
    for util in (0.5, 1.0):
        lines.append(f"-- {util:.0%} device utilization --")
        lines.append(f"{'ops':>10} {'Non-FDP':>8} {'FDP':>6}")
        non, fdp = results[(util, False)], results[(util, True)]
        for a, b in zip(non.interval_series, fdp.interval_series):
            lines.append(
                f"{a.ops:>10} {a.interval_dlwa:>8.2f} {b.interval_dlwa:>6.2f}"
            )
        lines.append(
            f"steady: Non-FDP {non.steady_dlwa:.2f} vs FDP "
            f"{fdp.steady_dlwa:.2f} (paper: FDP ~1)"
        )
    emit_table("fig07_twitter", lines)

    for util in (0.5, 1.0):
        assert results[(util, True)].steady_dlwa < 1.1
        assert (
            results[(util, True)].steady_dlwa
            < results[(util, False)].steady_dlwa
        )
