"""The multiprocess sweep runner's determinism contract.

Parallel and serial execution must merge to bit-identical RunResults,
and a point's seed must depend only on (figure, index) — never on
scheduling, worker count, or sibling points.

Failure isolation: one crashing point must not abort a multi-hour
sweep — the sibling points complete, the crash comes back as a typed
:class:`PointFailure` record at its point's position, and the
aggregated :class:`SweepError` (if raised at all) arrives only after
the whole sweep has finished.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bench import (
    DEFAULT_SCALE,
    PointFailure,
    Scale,
    SweepError,
    SweepPoint,
    point_seed,
    run_sweep,
)
from repro.bench.figures import FIGURES, shrink, smoke_points
from repro.bench.runner import RunResult

TINY_SCALE = Scale(num_superblocks=64, num_ops=8_000)


def tiny_points():
    return [
        SweepPoint(
            "test_sweep", 0, "kvcache",
            {"fdp": True, "utilization": 0.9, "scale": TINY_SCALE},
        ),
        SweepPoint(
            "test_sweep", 1, "kvcache",
            {"fdp": False, "utilization": 0.9, "scale": TINY_SCALE},
        ),
    ]


def test_point_seed_is_stable_and_decorrelated():
    assert point_seed("fig06_utilization_sweep", 0) == point_seed(
        "fig06_utilization_sweep", 0
    )
    seeds = {
        point_seed(fig, i)
        for fig in ("fig05_dlwa_timeline", "fig06_utilization_sweep")
        for i in range(8)
    }
    assert len(seeds) == 16  # no collisions across figures/points


def test_serial_and_parallel_sweeps_are_identical():
    serial = run_sweep(tiny_points(), workers=1)
    parallel = run_sweep(tiny_points(), workers=2)
    assert serial == parallel  # RunResult dataclass equality, all fields
    assert [r.name for r in serial] == [
        "test_sweep[0] kvcache",
        "test_sweep[1] kvcache",
    ]


def test_single_point_matches_its_sweep_value():
    sweep = run_sweep(tiny_points(), workers=2)
    alone = tiny_points()[1].run()
    assert alone == sweep[1]


def test_each_figure_smoke_point_is_one_of_its_points_shrunk():
    smoke = smoke_points()
    assert [p.figure for p in smoke] == list(FIGURES)
    for point in smoke:
        shrunk = point.kwargs["scale"].num_superblocks
        candidates = [
            dataclasses.replace(full, kwargs={
                **full.kwargs,
                "scale": dataclasses.replace(
                    full.kwargs.get("scale", DEFAULT_SCALE),
                    num_superblocks=shrunk,
                ),
                "num_ops": point.kwargs["num_ops"],
            })
            for full in FIGURES[point.figure]
        ]
        assert point in candidates, point.name
        assert shrunk < DEFAULT_SCALE.num_superblocks


def test_the_arms_of_each_swept_value_share_one_seed():
    for figure, points in FIGURES.items():
        seeds = {}
        for p in points:
            assert "seed" not in p.kwargs, p.name
            seeds.setdefault(p.index, set()).add(p.seed)
        assert all(len(s) == 1 for s in seeds.values()), figure
        assert len(set().union(*seeds.values())) == len(seeds), figure
        assert len({p.name for p in points}) == len(points), figure


def test_a_declared_learned_policy_starts_untrained_in_every_run():
    """A ``SurvivalAdmission`` declared once in ``FIGURES`` trains
    during a run; the next run in the same process must not inherit
    the model (``reseed`` rebinds only its RNG)."""
    (point,) = shrink(
        [p for p in FIGURES["ablation"] if p.arm == "survival kangaroo Non-FDP"], 48, 8_000
    )
    first = point.run()
    assert first.flash_admit_ratio < 1.0  # the model learned to reject
    assert point.run() == first
    assert run_sweep([point, point], workers=2) == [first, first]


def test_a_failing_point_carries_the_name_its_result_would():
    ok = tiny_points()[0]
    broken = dataclasses.replace(ok, kwargs={**ok.kwargs, "utilization": 2.0})
    (result,) = run_sweep([ok], workers=1)
    (failure,) = run_sweep([broken], workers=1, on_error="record")
    assert isinstance(failure, PointFailure)
    assert failure.name == result.name == "test_sweep[0] kvcache"


def crashing_point(index=2):
    # utilization > 1 fails validation inside the worker's
    # build_experiment call — a representative mis-parameterized point.
    return SweepPoint(
        "test_sweep", index, "kvcache",
        {"fdp": True, "utilization": 2.0, "scale": TINY_SCALE},
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_crashing_point_does_not_abort_the_sweep(workers):
    points = tiny_points() + [crashing_point()]
    with pytest.raises(SweepError) as exc_info:
        run_sweep(points, workers=workers)
    err = exc_info.value
    # The siblings completed and are salvageable from the exception.
    assert len(err.results) == 3
    assert isinstance(err.results[0], RunResult)
    assert isinstance(err.results[1], RunResult)
    assert err.results[:2] == run_sweep(tiny_points(), workers=1)
    # The failure is a typed record at its point's position.
    assert err.failures == [err.results[2]]
    failure = err.failures[0]
    assert isinstance(failure, PointFailure)
    assert (failure.figure, failure.index) == ("test_sweep", 2)
    assert failure.error_type == "ValueError"
    assert "utilization" in failure.message
    assert "Traceback" in failure.traceback
    assert failure.summary_row().startswith("test_sweep[2]")


def test_on_error_record_returns_failures_in_place():
    points = [crashing_point(0)] + tiny_points()
    results = run_sweep(points, workers=2, on_error="record")
    assert isinstance(results[0], PointFailure)
    assert isinstance(results[1], RunResult)
    assert isinstance(results[2], RunResult)


def test_on_error_validation():
    with pytest.raises(ValueError):
        run_sweep(tiny_points(), on_error="ignore")


def test_all_points_failing_still_reports_each():
    points = [crashing_point(0), crashing_point(1)]
    with pytest.raises(SweepError) as exc_info:
        run_sweep(points, workers=2)
    assert len(exc_info.value.failures) == 2
    assert "2/2 sweep points failed" in str(exc_info.value)
