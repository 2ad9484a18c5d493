"""Figure 13 (Appendix B): WO KV Cache utilization sweep with latency.

Paper result: at 100% device utilization, FDP-based segregation obtains
3.5x lower DLWA, 2.2x better p99 read latency, and 9.5x better p99
write latency; gains grow with utilization.
"""

from conftest import emit_table, replay

from repro.bench.figures import FIG13_UTILIZATIONS as UTILIZATIONS


def test_fig13_wo_kvcache_util_sweep(once):
    results = once(lambda: replay("fig13_wo_util_sweep", UTILIZATIONS))

    lines = [
        "Figure 13: WO KV Cache utilization sweep",
        f"{'util':>5} {'arm':>8} {'DLWA':>6} {'p99w(us)':>9} "
        f"{'p50w(us)':>9} {'kops':>7}",
    ]
    for util in UTILIZATIONS:
        for arm in ("Non-FDP", "FDP"):
            r = results[(util, arm)]
            lines.append(
                f"{util:>5.0%} {arm:>8} "
                f"{r.steady_dlwa:>6.2f} {r.p99_write_us:>9.0f} "
                f"{r.p50_write_us:>9.0f} {r.throughput_kops:>7.1f}"
            )
    full_non = results[(1.0, "Non-FDP")]
    full_fdp = results[(1.0, "FDP")]
    lines.append(
        f"@100%: DLWA gain "
        f"{full_non.steady_dlwa / full_fdp.steady_dlwa:.1f}x (paper: 3.5x), "
        f"p99 write gain "
        f"{full_non.p99_write_us / max(1, full_fdp.p99_write_us):.1f}x "
        f"(paper: 9.5x)"
    )
    emit_table("fig13_wo_util_sweep", lines)

    # DLWA gains grow with utilization.
    gains = [
        results[(u, "Non-FDP")].steady_dlwa / results[(u, "FDP")].steady_dlwa
        for u in UTILIZATIONS
    ]
    assert gains[-1] > gains[0]
    assert gains[-1] > 1.8
    # Latency: FDP never worse at full utilization.
    assert full_fdp.p99_write_us <= full_non.p99_write_us * 1.05
