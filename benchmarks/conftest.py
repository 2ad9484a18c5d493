"""Shared helpers for the figure/table benchmarks.

Every bench regenerates one table or figure from the paper's
evaluation at reduced scale (see DESIGN.md §5 for the index).  Results
are printed and also written to ``benchmarks/results/<name>.txt`` so
the regenerated rows/series survive pytest's output capture.

Run with::

    pytest benchmarks/ --benchmark-only

Each bench's sweep points (swept values, arms, run lengths, seeds) are
declared once, in :data:`repro.bench.figures.FIGURES`; :func:`replay`
runs one entry.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Sequence

import pytest

from repro.bench import RunResult, run_sweep
from repro.bench.figures import FIGURES

RESULTS_DIR = Path(__file__).parent / "results"


def replay(figure: str, values: Sequence = ()) -> Dict[object, RunResult]:
    """Run every point of ``FIGURES[figure]`` across worker processes.

    Results are keyed by arm (``"FDP"``), or by ``(value, arm)`` when
    the bench passes the swept ``values`` in index order.
    """
    points = FIGURES[figure]
    results = {
        (values[p.index], p.arm) if values else p.arm: r
        for p, r in zip(points, run_sweep(points))
    }
    assert len(results) == len(points), f"{figure}: two points share a key"
    return results


def emit_table(name: str, lines: Iterable[str]) -> None:
    """Print a regenerated table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines)
    print(f"\n=== {name} ===\n{text}\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def once(benchmark):
    """Run the measured callable exactly once (simulations are long)."""

    def runner(func):
        return benchmark.pedantic(func, rounds=1, iterations=1)

    return runner
