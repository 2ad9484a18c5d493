"""Figure 6: SSD utilization sweep with the KV Cache workload.

Paper result: Non-FDP DLWA rises from ~1.3 @ 50% to ~3.5 @ 100%
utilization; FDP stays ~1.03 throughout with unchanged throughput and
hit ratios, and *better* p99 read/write latency at high utilization
(1.75x read, 10x write at 100%).
"""

from conftest import emit_table, replay

from repro.bench.figures import FIG06_UTILIZATIONS as UTILIZATIONS


def test_fig06_utilization_sweep(once):
    results = once(lambda: replay("fig06_utilization_sweep", UTILIZATIONS))

    lines = [
        "Figure 6: utilization sweep, KV Cache workload",
        f"{'util':>5} {'arm':>8} {'DLWA':>6} {'kops':>7} {'hit%':>6} "
        f"{'dram%':>6} {'nvm%':>6} {'p99r(us)':>9} {'p99w(us)':>9} "
        f"{'ALWA':>5}",
    ]
    for util in UTILIZATIONS:
        for arm in ("Non-FDP", "FDP"):
            r = results[(util, arm)]
            lines.append(
                f"{util:>5.0%} {arm:>8} "
                f"{r.steady_dlwa:>6.2f} {r.throughput_kops:>7.1f} "
                f"{r.hit_ratio * 100:>6.1f} {r.dram_hit_ratio * 100:>6.1f} "
                f"{r.nvm_hit_ratio * 100:>6.1f} {r.p99_read_us:>9.0f} "
                f"{r.p99_write_us:>9.0f} {r.alwa:>5.2f}"
            )
    full_non = results[(1.0, "Non-FDP")]
    full_fdp = results[(1.0, "FDP")]
    lines.append(
        f"@100%: DLWA {full_non.steady_dlwa:.2f} -> "
        f"{full_fdp.steady_dlwa:.2f} (paper: 3.5 -> 1.03); "
        f"p99 read gain {full_non.p99_read_us / max(1, full_fdp.p99_read_us):.2f}x "
        f"(paper: 1.75x)"
    )
    emit_table("fig06_utilization_sweep", lines)

    # Shape assertions.
    assert full_fdp.steady_dlwa < 1.1
    assert full_non.steady_dlwa > 2.0
    assert (
        results[(1.0, "Non-FDP")].steady_dlwa
        > results[(0.5, "Non-FDP")].steady_dlwa
    )
    for util in UTILIZATIONS:
        a, b = results[(util, "FDP")], results[(util, "Non-FDP")]
        assert abs(a.hit_ratio - b.hit_ratio) < 0.01
        assert a.p99_read_us <= b.p99_read_us * 1.05
