"""Vectorized kernel speedup over the per-command paths.

Not a paper figure: this bench guards the kernel PR's claim that
``write_arrays`` with telemetry hooks detached (the ``repro.kernel``
fast-path configuration) sustains a multiple of the submission
throughput of the per-command paths with telemetry attached — the
configurations benchmarks/test_batch_throughput.py measures.  The media
state is identical across cases (tests/test_differential_kernel.py
proves bit-identity); only host-side CPU cost and telemetry recording
differ.

Two bars, each set under a tenth below what this bench measures (the
spread of its median over repeated runs is about 4%), so that losing a
tenth of the kernel rate fails one of them:

* over the batched path, >= 1.9x (measured 2.06-2.15x).  This bar was
  3x (measured 3.8-3.9x) while the batched path built one OOB record
  object per page.  PR 12 put both paths on the same columnar chunk
  body (``Ftl._program_extent``), which doubled the batched rate (1.0
  -> 2.0 Mpages/s) with the kernel rate a little up (4.0 -> 4.2), so
  the ratio fell through its denominator alone.
* over the scalar per-page loop, >= 7.6x (measured 8.3-8.6x; 7.8-8.1x
  on the commit before PR 12).  That loop is the reference path nobody
  optimises, so this bar holds the kernel's absolute rate, in
  machine-independent units, at no worse than it was before the batched
  path moved — which the first bar alone could not tell.
"""

from conftest import emit_table

from repro.tools.iobench import run_case

COMMANDS = 12_000
NPAGES = 32
MIN_OVER_BATCHED = 1.9
MIN_OVER_SCALAR = 7.6


def test_kernel_write_throughput(once):
    def run():
        # Sequential wrap (the LOC region-flush pattern): DLWA ~1, so
        # submission cost — the thing the kernel amortizes — dominates.
        kwargs = dict(
            commands=COMMANDS, npages=NPAGES, seed=1234, pattern="seq"
        )
        # Paired rounds, median-of-ratios: each round times the arms
        # back to back, so a slow stretch (noisy neighbor, page cache
        # pressure from an earlier bench) hits every arm of a ratio
        # instead of just one.  The discarded first round also absorbs
        # one-time lazy-initialization costs.
        rounds = []
        for _ in range(6):
            rounds.append((
                run_case(label="kernel", io_path="batched", arrays=True,
                         **kwargs),
                run_case(label="batched", io_path="batched", **kwargs),
                run_case(label="scalar", io_path="scalar", **kwargs),
            ))
        return rounds[1:]

    rounds = once(run)

    def median_round(arm):
        """The round with the median kernel-over-``arm`` ratio."""
        ranked = sorted(
            rounds, key=lambda r: r[0]["pages_per_s"] / r[arm]["pages_per_s"]
        )
        return ranked[len(ranked) // 2]

    kernel, batched, _ = median_round(1)
    scalar_round = median_round(2)
    over_scalar = (
        scalar_round[0]["pages_per_s"] / scalar_round[2]["pages_per_s"]
    )
    baseline = batched["pages_per_s"]
    lines = [
        f"Kernel throughput ({COMMANDS} cmds x {NPAGES} pages)",
        f"{'case':<10} {'Mpages/s':>9} {'vs batched':>11}",
    ]
    for case in (kernel, batched):
        lines.append(
            f"{case['label']:<10} {case['pages_per_s'] / 1e6:>9.2f} "
            f"{case['pages_per_s'] / baseline:>10.2f}x"
        )
    lines.append(f"kernel vs scalar loop: {over_scalar:.2f}x")
    emit_table("kernel_throughput", lines)

    # Same simulated media outcome either way...
    assert kernel["dlwa"] == batched["dlwa"] == scalar_round[2]["dlwa"]
    # ...but the kernel path must deliver the claimed speedups.
    speedup = kernel["pages_per_s"] / baseline
    assert speedup >= MIN_OVER_BATCHED, (
        f"kernel path only {speedup:.2f}x over batched "
        f"(claim: >= {MIN_OVER_BATCHED}x)"
    )
    assert over_scalar >= MIN_OVER_SCALAR, (
        f"kernel path only {over_scalar:.2f}x over the scalar loop "
        f"(claim: >= {MIN_OVER_SCALAR}x)"
    )
