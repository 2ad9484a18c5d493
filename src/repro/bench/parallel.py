"""Multiprocess benchmark sweep runner.

The figure benches sweep a handful of independent experiment arms
(utilization points, SOC fractions, DRAM sizes) that each replay a
million-op trace against its own simulated device — embarrassingly
parallel work that the serial loops leave on the table.  This module
fans sweep points out across worker processes and merges the
:class:`~repro.bench.metrics.RunResult` objects back in point order.

Determinism contract
--------------------
Parallel and serial execution of the same sweep must produce
bit-identical results, which requires every point to carry its *own*
seed rather than inheriting whatever a shared RNG happened to hold
when the point started.  :func:`point_seed` derives that seed from the
figure name and point index alone, so:

* a point's trace does not depend on scheduling order, worker count,
  or which other points ran before it;
* every *arm* within a point (e.g. fig06's FDP and Non-FDP runs at one
  utilization) shares the seed, so paired-arm assertions — "FDP and
  Non-FDP hit ratios match at each utilization" — keep comparing runs
  of the same trace;
* re-running a single point in isolation reproduces the sweep's value
  for it exactly.

Workers receive :class:`SweepPoint` descriptors (cheap, picklable) and
build the device/cache/trace locally — RunResults travel back, devices
never do.

Failure isolation
-----------------
A point that raises no longer aborts the sweep with a bare pool
traceback: workers catch the exception, ship back a picklable
:class:`PointFailure`, and the sweep completes every remaining point.
``on_error="raise"`` (the default) then raises one aggregated
:class:`SweepError` carrying the failures *and* the completed results;
``on_error="record"`` returns the failures in the result list at their
point's position.
"""

from __future__ import annotations

import dataclasses
import os
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Union

from .metrics import RunResult
from .runner import Scale, point_seed, run_experiment

__all__ = [
    "SweepPoint",
    "PointFailure",
    "SweepError",
    "point_seed",
    "run_sweep",
    "figure_points",
]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One experiment arm of a figure sweep, ready to ship to a worker.

    ``kwargs`` is passed through to
    :func:`~repro.bench.runner.run_experiment`; ``seed`` and ``name``
    default to :func:`point_seed` / a ``figure[index]`` label when the
    kwargs omit them.
    """

    figure: str
    index: int
    workload: str
    kwargs: Dict[str, object] = dataclasses.field(default_factory=dict)

    def run(self) -> RunResult:
        kwargs = dict(self.kwargs)
        kwargs.setdefault("seed", point_seed(self.figure, self.index))
        kwargs.setdefault(
            "name", f"{self.figure}[{self.index}] {self.workload}"
        )
        return run_experiment(self.workload, **kwargs)


@dataclasses.dataclass(frozen=True)
class PointFailure:
    """A sweep point that raised, reduced to picklable strings.

    Exceptions themselves may not unpickle cleanly across the process
    boundary (custom ``__init__`` signatures, attached devices), so the
    worker flattens type/message/traceback before shipping it back.

    ``workload`` and ``params`` carry the originating
    :class:`SweepPoint`'s full parameterization (kwargs flattened to
    ``repr`` strings for pickling), so a failure in a large matrix —
    e.g. the overload scenario sweep — is reproducible from the
    aggregated :class:`SweepError` alone, without looking the point's
    index back up.
    """

    figure: str
    index: int
    name: str
    error_type: str
    message: str
    traceback: str
    workload: str = ""
    params: Dict[str, str] = dataclasses.field(default_factory=dict)

    def summary_row(self) -> str:
        row = f"{self.name}: {self.error_type}: {self.message}"
        if self.workload or self.params:
            args = ", ".join(
                f"{k}={v}" for k, v in sorted(self.params.items())
            )
            row += f" [workload={self.workload!r} {args}]"
        return row


class SweepError(Exception):
    """One or more sweep points failed (the rest completed).

    ``failures`` holds the :class:`PointFailure` records; ``results``
    holds the full in-order result list with failures at their point's
    position, so callers can still salvage the completed points.
    """

    def __init__(
        self,
        failures: List[PointFailure],
        results: List[Union[RunResult, PointFailure]],
    ) -> None:
        rows = "; ".join(f.summary_row() for f in failures)
        super().__init__(
            f"{len(failures)}/{len(results)} sweep points failed: {rows}"
        )
        self.failures = failures
        self.results = results


def _run_point(point: SweepPoint) -> Union[RunResult, PointFailure]:
    # Module-level so ProcessPoolExecutor can pickle it by reference.
    # Failures come back as data, never as a raw exception unwinding
    # the pool (which would abort the whole sweep mid-flight).
    try:
        return point.run()
    except Exception as exc:
        return PointFailure(
            figure=point.figure,
            index=point.index,
            name=str(
                point.kwargs.get("name", f"{point.figure}[{point.index}]")
            ),
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=_traceback.format_exc(),
            workload=point.workload,
            params={k: repr(v) for k, v in point.kwargs.items()},
        )


def run_sweep(
    points: Iterable[SweepPoint],
    *,
    workers: Optional[int] = None,
    on_error: str = "raise",
) -> List[Union[RunResult, PointFailure]]:
    """Run sweep points across worker processes; results in point order.

    ``workers=None`` uses the CPU count; ``workers <= 1`` (or a
    single-point sweep) runs serially in-process, which the
    determinism contract guarantees is indistinguishable from the
    parallel path — tests/test_parallel_sweep.py asserts RunResult
    equality between the two.

    Every point runs to completion even if some fail.  With
    ``on_error="raise"`` (default) a :class:`SweepError` aggregating
    the failures is raised *after* the sweep finishes; with
    ``on_error="record"`` the :class:`PointFailure` records are
    returned in place of their points' results.
    """
    if on_error not in ("raise", "record"):
        raise ValueError("on_error must be 'raise' or 'record'")
    points = list(points)
    if not points:
        return []
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(points))
    if workers <= 1:
        results = [_run_point(p) for p in points]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point, points))
    failures = [r for r in results if isinstance(r, PointFailure)]
    if failures and on_error == "raise":
        raise SweepError(failures, results)
    return results


# The smoke sweep shrinks the device (64 MiB physical) and the trace so
# one point per run_experiment-driven figure finishes in seconds.
SMOKE_SCALE = Scale(num_superblocks=128)
SMOKE_OPS = 40_000


def figure_points(num_ops: int = SMOKE_OPS) -> List[SweepPoint]:
    """One representative point per trace-replay figure/table bench."""

    def kw(**kwargs: object) -> Dict[str, object]:
        kwargs.setdefault("scale", SMOKE_SCALE)
        kwargs.setdefault("num_ops", num_ops)
        return kwargs

    dram = int(SMOKE_SCALE.geometry().logical_bytes * 0.9 * 0.022)
    return [
        SweepPoint(
            "fig05_dlwa_timeline", 0, "kvcache",
            kw(fdp=False, utilization=0.9),
        ),
        SweepPoint(
            "fig06_utilization_sweep", 3, "kvcache",
            kw(fdp=True, utilization=1.0),
        ),
        SweepPoint(
            "fig07_twitter", 0, "twitter",
            kw(fdp=True, utilization=0.9),
        ),
        SweepPoint(
            "fig08_wo_kvcache", 0, "wo-kvcache",
            kw(fdp=True, utilization=0.9),
        ),
        SweepPoint(
            "fig09_soc_sweep", 1, "kvcache",
            kw(fdp=True, utilization=0.9, soc_fraction=0.16),
        ),
        SweepPoint(
            "fig13_wo_util_sweep", 2, "wo-kvcache",
            kw(fdp=False, utilization=1.0),
        ),
        SweepPoint(
            "table2_dram_sweep", 1, "kvcache",
            kw(fdp=True, utilization=0.9, dram_bytes=dram),
        ),
    ]
