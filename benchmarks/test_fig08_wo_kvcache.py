"""Figure 8: DLWA with the write-only KV Cache workload.

Paper result: even with the most write-hostile workload (GETs stripped
from the KV Cache trace), FDP-based segregation holds DLWA at ~1 at
both 50% and 100% device utilization.
"""

from conftest import emit_table, ops_for, sweep_seed

from repro.bench import run_experiment


def test_fig08_wo_kvcache_dlwa(once):
    def run():
        return {
            (util, fdp): run_experiment(
                "wo-kvcache",
                fdp=fdp,
                utilization=util,
                num_ops=ops_for(util),
                seed=sweep_seed("fig08_wo_kvcache", int(util == 1.0)),
            )
            for util in (0.5, 1.0)
            for fdp in (False, True)
        }

    results = once(run)

    lines = ["Figure 8: WO KV Cache interval DLWA (a: 50%, b: 100%)"]
    for util in (0.5, 1.0):
        non, fdp = results[(util, False)], results[(util, True)]
        lines.append(f"-- {util:.0%} device utilization --")
        lines.append(f"{'ops':>10} {'Non-FDP':>8} {'FDP':>6}")
        for a, b in zip(non.interval_series, fdp.interval_series):
            lines.append(
                f"{a.ops:>10} {a.interval_dlwa:>8.2f} {b.interval_dlwa:>6.2f}"
            )
        lines.append(
            f"steady: Non-FDP {non.steady_dlwa:.2f} vs FDP "
            f"{fdp.steady_dlwa:.2f} (paper: FDP ~1)"
        )
    emit_table("fig08_wo_kvcache", lines)

    for util in (0.5, 1.0):
        assert results[(util, True)].steady_dlwa < 1.2
        assert (
            results[(util, True)].steady_dlwa
            <= results[(util, False)].steady_dlwa
        )
    # The write-only workload is where segregation matters most at
    # full utilization.
    assert (
        results[(1.0, False)].steady_dlwa
        > 1.8 * results[(1.0, True)].steady_dlwa
    )
