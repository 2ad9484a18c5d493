"""Ablation (Insight 5): initially vs. persistently isolated RUHs.

Paper claim: initially isolated FDP devices suffice for CacheLib —
once SOC and LOC live in different RUs, only SOC data reaches GC, so
the cheaper isolation type gives the same DLWA as persistent isolation.
"""

from conftest import emit_table, replay


def test_ablation_ruh_types(once):
    results = once(lambda: replay("ablation_ruh_types"))
    init, pers = results["initially"], results["persistently"]

    lines = [
        "Ablation: RUH isolation type, KV Cache @ 100% utilization",
        f"{'RUH type':>14} {'DLWA':>6} {'GC reloc':>9}",
        f"{'initially':>14} {init.steady_dlwa:>6.2f} "
        f"{init.gc_relocation_events:>9}",
        f"{'persistently':>14} {pers.steady_dlwa:>6.2f} "
        f"{pers.gc_relocation_events:>9}",
        "paper (Insight 5): the cheap type suffices — both ~1",
    ]
    emit_table("ablation_ruh_types", lines)

    assert init.steady_dlwa < 1.15
    assert abs(init.steady_dlwa - pers.steady_dlwa) < 0.1
