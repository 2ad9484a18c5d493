"""Figure 8: DLWA with the write-only KV Cache workload.

Paper result: even with the most write-hostile workload (GETs stripped
from the KV Cache trace), FDP-based segregation holds DLWA at ~1 at
both 50% and 100% device utilization.
"""

from conftest import emit_table, replay

from repro.bench.figures import HALF_AND_FULL


def test_fig08_wo_kvcache_dlwa(once):
    results = once(lambda: replay("fig08_wo_kvcache", HALF_AND_FULL))

    lines = ["Figure 8: WO KV Cache interval DLWA (a: 50%, b: 100%)"]
    for util in HALF_AND_FULL:
        non, fdp = results[(util, "Non-FDP")], results[(util, "FDP")]
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

    for util in HALF_AND_FULL:
        assert results[(util, "FDP")].steady_dlwa < 1.2
        assert (
            results[(util, "FDP")].steady_dlwa
            <= results[(util, "Non-FDP")].steady_dlwa
        )
    # The write-only workload is where segregation matters most at
    # full utilization.
    assert (
        results[(1.0, "Non-FDP")].steady_dlwa
        > 1.8 * results[(1.0, "FDP")].steady_dlwa
    )
