"""Figure 10: carbon analysis, KV Cache workload.

(a) Embodied CO2e (Theorem 2, 5-year lifecycle, 0.16 KgCO2e/GB): drops
    drastically under FDP because it scales with DLWA.
(b) GC events at equal host writes: reduced by ~3.6x with FDP.  The
    paper emulates the Non-FDP arm by forcing SOC and LOC onto a single
    RUH on an FDP-enabled device — this bench does exactly that with
    :class:`SingleHandlePolicy`.
"""

from conftest import emit_table, replay

from repro.bench import DEFAULT_SCALE
from repro.model import CarbonParams, embodied_co2e_kg


def test_fig10_carbon_and_gc_events(once):
    params = CarbonParams()
    results = once(lambda: replay("fig10_carbon"))
    seg = results["FDP (segregated)"]
    single = results["Non-FDP (single RUH)"]

    cap = DEFAULT_SCALE.geometry().physical_bytes
    seg_co2 = embodied_co2e_kg(seg.steady_dlwa, cap, params)
    single_co2 = embodied_co2e_kg(single.steady_dlwa, cap, params)

    lines = [
        "Figure 10a: embodied CO2e over a 5-year lifecycle (scaled device)",
        f"{'arm':>22} {'DLWA':>6} {'CO2e (Kg)':>10}",
        f"{'FDP (segregated)':>22} {seg.steady_dlwa:>6.2f} {seg_co2:>10.4f}",
        f"{'Non-FDP (single RUH)':>22} {single.steady_dlwa:>6.2f} "
        f"{single_co2:>10.4f}",
        f"embodied reduction: {single_co2 / seg_co2:.2f}x (paper: ~3-4x)",
        "",
        "Figure 10b: GC events at equal host writes",
        f"{'arm':>22} {'host pages':>11} {'GC reloc events':>16}",
        f"{'FDP (segregated)':>22} {seg.host_pages_written:>11} "
        f"{seg.gc_relocation_events:>16}",
        f"{'Non-FDP (single RUH)':>22} {single.host_pages_written:>11} "
        f"{single.gc_relocation_events:>16}",
        f"GC event reduction: "
        f"{single.gc_relocation_events / max(1, seg.gc_relocation_events):.1f}x "
        f"(paper: ~3.6x)",
    ]
    emit_table("fig10_carbon", lines)

    # Equal host writes (same trace, same cache logic).
    assert seg.host_pages_written == single.host_pages_written
    # Embodied carbon tracks DLWA (Theorem 2).
    assert single_co2 > 1.5 * seg_co2
    # Fewer GC events under segregation (Fig. 10b's claim).
    assert (
        single.gc_relocation_events > 2 * max(1, seg.gc_relocation_events)
    )
