"""Ablation (lesson learned 1): RU-size-aware LOC eviction with TRIM.

Paper claim: tracking LOC regions per reclaim unit and TRIMming whole
RUs "showed minimal gains and was shelved" — the LOC's sequential
overwrite already self-invalidates RUs.  This bench compares the LOC
with and without the TRIM hint.
"""

from conftest import emit_table, replay


def test_ablation_ru_aware_eviction(once):
    results = once(lambda: replay("ablation_ru_aware_eviction"))
    plain, trimmed = results["plain FIFO"], results["RU-aware + TRIM"]

    lines = [
        "Ablation: RU-aware LOC eviction (TRIM recycled regions)",
        f"{'variant':>16} {'DLWA':>6} {'GC reloc':>9}",
        f"{'plain FIFO':>16} {plain.steady_dlwa:>6.2f} "
        f"{plain.gc_relocation_events:>9}",
        f"{'RU-aware + TRIM':>16} {trimmed.steady_dlwa:>6.2f} "
        f"{trimmed.gc_relocation_events:>9}",
        "paper (lesson 1): minimal gains — shelved",
    ]
    emit_table("ablation_ru_aware_eviction", lines)

    # Both near 1; the TRIM hint buys little, confirming the paper.
    assert plain.steady_dlwa < 1.15
    assert abs(plain.steady_dlwa - trimmed.steady_dlwa) < 0.1
