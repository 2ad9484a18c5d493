"""Figure 9: average DLWA vs. SOC size, KV Cache @ 100% utilization.

Paper result: FDP's DLWA stays ~1.03 while the SOC fits inside device
overprovisioning (4%), rises once SOC exceeds OP (to ~2.5 at 64%), and
converges toward the Non-FDP arm (which stays above 3 throughout) at
90-96% SOC.
"""

from conftest import emit_table, replay

from repro.bench.figures import FIG09_SOC_FRACTIONS as SOC_FRACTIONS


def test_fig09_soc_size_sweep(once):
    # A 5x working set (figures.SWEEP_SCALE) keeps the SOC thrashing at
    # every size, as the paper's billions of small objects do.
    results = once(lambda: replay("fig09_soc_sweep", SOC_FRACTIONS))

    lines = [
        "Figure 9: DLWA vs SOC size, KV Cache @ 100% utilization",
        f"{'SOC%':>5} {'Non-FDP':>8} {'FDP':>6} {'hit% (FDP)':>11}",
    ]
    for soc in SOC_FRACTIONS:
        non, fdp = results[(soc, "Non-FDP")], results[(soc, "FDP")]
        lines.append(
            f"{soc:>5.0%} {non.steady_dlwa:>8.2f} {fdp.steady_dlwa:>6.2f} "
            f"{fdp.hit_ratio * 100:>11.1f}"
        )
    lines.append(
        "paper: FDP 1.03 @ 4% rising to ~2.5 @ 64%; Non-FDP > 3 throughout;"
        " gains vanish at 90-96% SOC"
    )
    emit_table("fig09_soc_sweep", lines)

    fdp_series = [results[(s, "FDP")].steady_dlwa for s in SOC_FRACTIONS]
    # FDP ~1 while SOC <= device OP, then rising.
    assert fdp_series[0] < 1.15
    assert fdp_series[-1] > fdp_series[0] + 0.3
    # Segregation helps at small SOC...
    assert (
        results[(0.04, "FDP")].steady_dlwa
        < results[(0.04, "Non-FDP")].steady_dlwa / 1.5
    )
    # ...but the benefit shrinks as SOC approaches the whole cache.
    small_gap = (
        results[(0.04, "Non-FDP")].steady_dlwa
        - results[(0.04, "FDP")].steady_dlwa
    )
    big_gap = (
        results[(0.90, "Non-FDP")].steady_dlwa
        - results[(0.90, "FDP")].steady_dlwa
    )
    assert big_gap < small_gap
