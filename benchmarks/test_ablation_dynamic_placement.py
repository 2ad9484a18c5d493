"""Ablation (lesson learned 2): dynamic vs. static data placement.

Paper claim: dynamic temperature-based policies showed "minimal gains
compared to the engineering complexity ... over a static predefined
placement handle" — static SOC/LOC segregation wins on simplicity at
equal (or better) DLWA.
"""

from conftest import emit_table, replay


def test_ablation_dynamic_placement(once):
    results = once(lambda: replay("ablation_dynamic_placement"))
    static, dynamic = results["static"], results["dynamic"]

    lines = [
        "Ablation: static SOC/LOC handles vs dynamic temperature policy",
        f"{'policy':>8} {'DLWA':>6} {'GC reloc':>9} {'hit%':>6}",
        f"{'static':>8} {static.steady_dlwa:>6.2f} "
        f"{static.gc_relocation_events:>9} {static.hit_ratio * 100:>6.1f}",
        f"{'dynamic':>8} {dynamic.steady_dlwa:>6.2f} "
        f"{dynamic.gc_relocation_events:>9} {dynamic.hit_ratio * 100:>6.1f}",
        "paper (lesson 2): dynamic placement does not beat static",
    ]
    emit_table("ablation_dynamic_placement", lines)

    # Static is at least as good as dynamic (the paper's finding).
    assert static.steady_dlwa <= dynamic.steady_dlwa + 0.05
    assert static.steady_dlwa < 1.15
