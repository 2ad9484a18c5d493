"""Batched submission speedup over the per-page caller pattern.

Not a paper figure: this bench guards the batching PR's claim that
handing the FTL multi-page commands sustains >= 3x the submission
throughput of issuing one single-page write per page (the pre-batching
caller pattern).  Both go down the FTL's one write path, and the media
state is identical (tests/test_differential_batch.py proves every
chunking bit-identical to programming page by page); only host-side
CPU cost differs.
"""

from conftest import emit_table

from repro.tools.iobench import run_case

COMMANDS = 12_000
NPAGES = 32
MIN_SPEEDUP = 3.0


def test_batched_write_throughput(once):
    def run():
        # Sequential wrap (the LOC region-flush pattern): DLWA ~1, so
        # submission cost — the thing batching amortizes — dominates.
        kwargs = dict(
            commands=COMMANDS, npages=NPAGES, seed=1234, pattern="seq"
        )
        return [
            run_case("batched", **kwargs),
            run_case("per-page", split=True, **kwargs),
        ]

    cases = once(run)
    baseline = cases[-1]["pages_per_s"]
    lines = [
        f"Batched I/O throughput ({COMMANDS} cmds x {NPAGES} pages)",
        f"{'case':<10} {'Mpages/s':>9} {'vs per-page':>12}",
    ]
    for case in cases:
        lines.append(
            f"{case['label']:<10} {case['pages_per_s'] / 1e6:>9.2f} "
            f"{case['pages_per_s'] / baseline:>11.2f}x"
        )
    emit_table("batch_throughput", lines)

    batched, per_page = cases
    # Same simulated media outcome either way...
    assert batched["dlwa"] == per_page["dlwa"]
    # ...but multi-page commands must deliver the claimed speedup.
    speedup = batched["pages_per_s"] / baseline
    assert speedup >= MIN_SPEEDUP, (
        f"batched submission only {speedup:.2f}x over per-page "
        f"(claim: >= {MIN_SPEEDUP}x)"
    )
