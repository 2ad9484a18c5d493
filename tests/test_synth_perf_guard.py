"""Count- and allocation-based guards on what set-up costs.

No wall clock, so they cannot flake: the numbers below are the
*mechanisms* behind ``wo_nonfdp``'s ``setup_s`` and every row's
``peak_rss_mib`` — a write-only trace ranks, churns and sizes only the
rows it keeps, a generator holds one chunk beyond its output however
long the stream is, building a ``Trace`` sorts nothing, and importing
the package loads no scipy — so a change that quietly synthesizes the
5x stream again, or imports ``scipy.special`` at module level, fails
here in tier-1 before any benchmark runs.

Parent readings (158eb6d) are in the comments; none may be regained.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.workloads import Trace, kv_cache_trace, synth, wo_kv_cache_trace

#: The benchmark's working set (``make_trace`` at the default scale).
NUM_KEYS = 101_410


def traced(generator, num_ops: int):
    """(peak traced bytes while generating, bytes of the columns kept)."""
    tracemalloc.start()
    try:
        trace = generator(num_ops, NUM_KEYS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, trace.ops.nbytes + trace.keys.nbytes + trace.sizes.nbytes


@pytest.mark.parametrize(
    "generator,bar,small,big",
    [
        # parent: 23.5x — the 5x stream, four columns of it
        (wo_kv_cache_trace, 8.0, 200_000, 800_000),
        # parent: 4.9x, now 4.0x.  Lengths of two full chunks and more,
        # so both carry one chunk's output into the next chunk's peak.
        (kv_cache_trace, 4.5, 300_000, 1_200_000),
    ],
)
def test_generating_peaks_at_a_small_multiple_of_what_it_returns(
    generator, bar, small, big
):
    generator(1_000, NUM_KEYS)  # first-call allocations are not the trace's
    peak, kept = traced(generator, 200_000)
    assert peak <= bar * kept, f"{peak / kept:.1f}x"
    # What is held beyond the output is a chunk, not a share of the
    # stream (parent: 73 -> 290 MiB write-only, 19 -> 72 MiB kvcache).
    peak, kept = traced(generator, small)
    big_peak, big_kept = traced(generator, big)
    assert big_peak - big_kept <= 1.1 * (peak - kept)


def test_write_only_trace_ranks_only_the_rows_it_keeps(monkeypatch):
    inverted = [0]
    real = np.searchsorted

    def counting(cdf, u, **kwargs):
        inverted[0] += len(u)
        return real(cdf, u, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    trace = wo_kv_cache_trace(200_000, NUM_KEYS)
    # parent: all 1,001,024 rows of the oversampled stream
    assert len(trace) <= inverted[0] <= len(trace) + synth._CHUNK_ROWS


def test_building_a_valid_trace_sorts_nothing(monkeypatch):
    trace = kv_cache_trace(10_000, 1_000)

    def refuse(*args, **kwargs):
        raise AssertionError("Trace sorted a column to validate it")

    monkeypatch.setattr(np, "unique", refuse)
    monkeypatch.setattr(np, "sort", refuse)
    rebuilt = Trace(trace.ops, trace.keys, trace.sizes)
    assert len(rebuilt.slice(100, 200)) == 100


def test_importing_the_package_loads_no_scipy():
    """``scipy.special`` (~0.2 s, ~20 MiB) loads when Theorem 1 is
    evaluated, not when anything is imported — and still gives the
    values it gave."""
    script = (
        "import sys\n"
        "import repro, repro.bench, repro.fleet, repro.kernel, repro.model\n"
        "assert 'scipy' not in sys.modules, 'scipy imported at import time'\n"
        "print(repr(repro.model.dlwa_fdp(0.5, 1.0)))\n"
        "print(repr(repro.model.dlwa_fdp(0.8, 1.0)))\n"
        "assert 'scipy' in sys.modules\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        # wherever this process found the package, whatever its cwd
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
    )
    assert out.returncode == 0, out.stderr
    half, four_fifths = map(float, out.stdout.split())
    assert half == pytest.approx(1.2550009749159754, rel=1e-12)
    assert four_fifths == pytest.approx(2.6927308399198995, rel=1e-12)
