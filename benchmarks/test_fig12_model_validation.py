"""Figure 12 (Appendix A.3): DLWA model vs. measured DLWA.

Paper result: the Lambert-W model (Theorem 1) tracks the measured DLWA
across SOC sizes at 100% utilization, overestimating by up to ~16% at
large SOC because real keys are skewed while the model assumes uniform
bucket updates.
"""

from conftest import emit_table, replay

from repro.bench.figures import FIG12_SOC_FRACTIONS as SOC_FRACTIONS
from repro.bench.figures import SWEEP_SCALE
from repro.model import dlwa_fdp, soc_physical_space


def test_fig12_model_vs_measured(once):
    # Same regime as Figure 9: the uniform-update model only applies
    # when the small-object working set spans the whole SOC bucket space.
    util = 1.0
    geometry = SWEEP_SCALE.geometry()
    results = once(lambda: replay("fig12_model_validation", SOC_FRACTIONS))

    lines = [
        "Figure 12: Theorem 1 model vs measured DLWA (FDP, 100% util)",
        f"{'SOC%':>5} {'model':>7} {'measured':>9} {'error%':>7}",
    ]
    errors = {}
    for soc in SOC_FRACTIONS:
        r = results[(soc, "FDP")]
        nvm_bytes = int(geometry.logical_bytes * util)
        soc_bytes = soc * nvm_bytes
        s_psoc = soc_physical_space(
            soc_bytes, geometry.physical_bytes, geometry.logical_bytes
        )
        predicted = dlwa_fdp(soc_bytes, s_psoc)
        measured = r.steady_dlwa
        err = (predicted - measured) / measured * 100
        errors[soc] = err
        lines.append(
            f"{soc:>5.0%} {predicted:>7.2f} {measured:>9.2f} {err:>7.1f}"
        )
    lines.append(
        "paper: model within ~16%, overestimating at large SOC (skewed "
        "keys invalidate faster than the uniform assumption)"
    )
    emit_table("fig12_model_validation", lines)

    # The model should track the simulator within a loose band and keep
    # the same ordering (monotone in SOC size).
    for soc in SOC_FRACTIONS:
        assert abs(errors[soc]) < 40.0
    measured_series = [results[(s, "FDP")].steady_dlwa for s in SOC_FRACTIONS]
    assert measured_series[-1] > measured_series[0]
