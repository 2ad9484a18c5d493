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

import copy
import dataclasses
import os
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Union

from .metrics import RunResult
from .runner import point_seed, run_experiment

__all__ = [
    "SweepPoint",
    "PointFailure",
    "SweepError",
    "point_seed",
    "run_sweep",
]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One experiment arm of a figure sweep, ready to ship to a worker.

    ``kwargs`` is passed through to
    :func:`~repro.bench.runner.run_experiment` with :attr:`seed` and
    :attr:`name`, which a ``seed``/``name`` in the kwargs overrides.
    ``arm`` names one of the arms that share a swept value's ``index``.
    Each run replays a deep copy of ``kwargs``, as a pool worker's
    unpickled copy is: a stateful argument (a learned admission
    policy, whose ``reseed`` only rebinds its RNG) starts every run as
    declared.
    """

    figure: str
    index: int
    workload: str
    kwargs: Dict[str, object] = dataclasses.field(default_factory=dict)
    arm: str = ""

    @property
    def seed(self) -> int:
        """:func:`point_seed` of the figure and index."""
        return self.kwargs.get("seed", point_seed(self.figure, self.index))

    @property
    def name(self) -> str:
        """The label of the point's RunResult, or of its PointFailure,
        with the point's scenario, if it replays one, in brackets."""
        label = f"{self.figure}[{self.index}] {self.workload} {self.arm}"
        label = str(self.kwargs.get("name", label.rstrip()))
        scenario = self.kwargs.get("scenario")
        if scenario is None:
            return label
        return f"{label} [{getattr(scenario, 'name', scenario)}]"

    def run(self) -> RunResult:
        kwargs = {**copy.deepcopy(self.kwargs), "seed": self.seed, "name": self.name}
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
            name=point.name,
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

