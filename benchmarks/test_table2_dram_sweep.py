"""Table 2: DRAM-size sweep, KV Cache @ 100% utilization, 4% SOC.

Paper result: shrinking DRAM (42 GB -> 20 GB -> 4 GB) lowers overall
hit ratio and throughput slightly while NVM hit ratio rises; FDP and
Non-FDP match on cache metrics, but FDP's CO2e is ~3x lower, enabling
carbon-efficient low-DRAM deployments.

DRAM sizes scale by the same ratios as the paper (42 GB ~ 4.5% of the
930 GB cache; 20 GB ~ 2.2%; 4 GB ~ 0.43%).
"""

from conftest import emit_table, replay

from repro.bench import DEFAULT_SCALE
from repro.bench.figures import DRAM_RATIOS
from repro.model import CarbonParams, embodied_co2e_kg, operational_co2e_kg


def test_table2_dram_sweep(once):
    results = once(lambda: replay("table2_dram_sweep", tuple(DRAM_RATIOS)))
    params = CarbonParams()
    cap = DEFAULT_SCALE.geometry().physical_bytes

    lines = [
        "Table 2: KV Cache @ 100% utilization, 4% SOC, varying DRAM",
        f"{'configuration':>16} {'hit%':>6} {'nvm hit%':>9} {'KGET/s':>7} "
        f"{'CO2e (Kg)':>10}",
    ]
    co2 = {}
    for label in DRAM_RATIOS:
        for arm in ("FDP", "Non-FDP"):
            r = results[(label, arm)]
            total = embodied_co2e_kg(r.steady_dlwa, cap, params) + (
                operational_co2e_kg(r.energy_kwh, params)
            )
            co2[(label, arm)] = total
            lines.append(
                f"{arm + ' ' + label:>16} {r.hit_ratio * 100:>6.1f} "
                f"{r.nvm_hit_ratio * 100:>9.2f} {r.throughput_kops:>7.1f} "
                f"{total:>10.4f}"
            )
    lines.append(
        "paper: FDP CO2e ~3x lower at every DRAM size; hit ratio falls and "
        "NVM hit ratio rises as DRAM shrinks"
    )
    emit_table("table2_dram_sweep", lines)

    # Smaller DRAM -> lower overall hit ratio, higher NVM hit ratio.
    assert (
        results[("4GB", "FDP")].hit_ratio
        <= results[("42GB", "FDP")].hit_ratio + 0.005
    )
    assert (
        results[("4GB", "FDP")].nvm_hit_ratio
        > results[("42GB", "FDP")].nvm_hit_ratio
    )
    # FDP and Non-FDP agree on cache metrics...
    for label in DRAM_RATIOS:
        a, b = results[(label, "FDP")], results[(label, "Non-FDP")]
        assert abs(a.hit_ratio - b.hit_ratio) < 0.01
    # ...but FDP is much more carbon-efficient.
    for label in DRAM_RATIOS:
        assert co2[(label, "Non-FDP")] > 1.5 * co2[(label, "FDP")]
