"""Golden-trace regression fixtures for end-to-end run results.

Small experiment arms are replayed and their complete result objects —
DLWA, ALWA, hit ratios, p99 latencies, GC activity, energy, the
interval-DLWA series, the latency soak's per-queue histogram
percentiles, and the crash/integrity soak counters — are compared
field-by-field against committed JSON under ``tests/golden/``.  Any
behavioural drift in the device model, cache engines, scheduler, or
replay driver fails here even when no targeted unit test notices.

Integer fields must match exactly (the simulator is deterministic);
floats use a 1e-9 relative tolerance so a JSON round-trip never
flakes.  To *intentionally* change behaviour, regenerate with::

    pytest tests/test_golden_regression.py --update-golden

and commit the resulting diff alongside the change that explains it.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import pytest

from repro.bench import (
    Scale,
    run_crash_soak,
    run_experiment,
    run_integrity_soak,
)
from repro.bench.__main__ import SOAKS
from repro.bench.figures import ADMISSIONS
from repro.bench.latency import run_latency_soak

GOLDEN_DIR = Path(__file__).parent / "golden"

# Small but GC-active arms: ~48 MiB physical, tens of thousands of ops.
_SCALE = Scale(num_superblocks=96, num_ops=30_000)

CONFIGS = {
    "kvcache_fdp_util90": dict(workload="kvcache", fdp=True, utilization=0.9),
    "kvcache_nonfdp_util90": dict(
        workload="kvcache", fdp=False, utilization=0.9
    ),
    "twitter_fdp_util50": dict(workload="twitter", fdp=True, utilization=0.5),
}


def run_config(name: str):
    kwargs = dict(CONFIGS[name])
    workload = kwargs.pop("workload")
    return run_experiment(
        workload, scale=_SCALE, seed=20260805, name=name, **kwargs
    )


def _assert_close(path: str, got, want) -> None:
    if isinstance(want, float):
        assert isinstance(got, (int, float)), f"{path}: {got!r} vs {want!r}"
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (
            f"{path}: drift {got!r} != golden {want!r}"
        )
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (
            f"{path}: length {len(got)} != golden {len(want)}"
        )
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(f"{path}[{i}]", g, w)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), (
            f"{path}: keys {sorted(got)} != golden {sorted(want)}"
        )
        for key in want:
            _assert_close(f"{path}.{key}", got[key], want[key])
    else:
        assert got == want, f"{path}: drift {got!r} != golden {want!r}"


def _check_golden(name: str, data: dict, update_golden: bool) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden fixture rewritten: {path.name}")
    assert path.exists(), (
        f"missing golden fixture {path}; generate with --update-golden"
    )
    _assert_close(name, data, json.loads(path.read_text()))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_run_result(name: str, update_golden: bool) -> None:
    _check_golden(name, dataclasses.asdict(run_config(name)), update_golden)


@pytest.mark.parametrize("policy", sorted(ADMISSIONS))
def test_golden_ablation_row(policy: str, update_golden: bool) -> None:
    """One ablation-matrix row per admission policy: its kangaroo +
    non-FDP cell (the cell where admission does the work) replayed as
    the smoke soak replays it.  Pins the learned policy's whole
    decision stream: any drift in feature extraction, training order,
    or ghost-list bookkeeping shows up as a DLWA/hit-ratio diff here."""
    (point,) = [
        p for p in SOAKS["ablation"].smoke["points"] if p.arm == f"{policy} kangaroo Non-FDP"
    ]
    _check_golden(
        f"ablation_{policy}_kangaroo_nonfdp",
        dataclasses.asdict(point.run()),
        update_golden,
    )


def test_golden_nemo_replay(update_golden: bool) -> None:
    """End-to-end Nemo-engine replay fixture: index-guided lookups,
    FIFO region reclaim, and reinsertion WA all feed the pinned
    counters."""
    result = run_experiment(
        "kvcache",
        fdp=True,
        utilization=0.9,
        scale=_SCALE,
        seed=20260805,
        cache_overrides={"soc_engine": "nemo"},
        name="nemo_fdp_util90",
    )
    _check_golden(
        "nemo_fdp_util90", dataclasses.asdict(result), update_golden
    )


def test_golden_latency_soak(update_golden: bool) -> None:
    """Histogram-percentile fixture for the FDP-on/off latency soak.

    Every latency field is a bucket upper bound — a deterministic
    integer — so this pins the scheduler's timing behaviour (channel
    contention, GC spans) exactly, not approximately.  The canned
    soak is small but past warm-up, so it also locks in the headline
    direction: FDP-on p99 read below FDP-off.
    """
    result = run_latency_soak(num_ops=48_000)
    assert result.acceptance, result.table()
    # The fixture predates the soak result type: one dict per arm with
    # its name, row and per-queue evidence.
    data = dict(result.params)
    for key, arm in (("fdp_off", "Non-FDP"), ("fdp_on", "FDP")):
        data[key] = {
            **result.row(arm),
            **result.evidence[arm],
            "name": f"{result.params['workload']} {arm}",
        }
        del data[key]["arm"]
    _check_golden("latency_kvcache_util85", data, update_golden)


def _golden_keys(name: str, data: dict) -> dict:
    """``data`` cut to the keys its golden has (both fixtures predate
    the soak result type, which carries more)."""
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    return {k: v for k, v in data.items() if k in golden}


def test_golden_crash_soak(update_golden: bool) -> None:
    """Counter fixture for the crash soak under its contract seed
    (``point_seed("crash_soak", 0)`` — the sweep-seed contract, not an
    ad-hoc global)."""
    result = run_crash_soak()
    assert result.acceptance, result.table()
    data = _golden_keys("crash_soak_default", {**result.params, **result.evidence})
    _check_golden("crash_soak_default", data, update_golden)


def test_golden_integrity_soak(update_golden: bool) -> None:
    """Counter fixture for the integrity soak under its contract seed
    (``point_seed("integrity_soak", 0)``)."""
    data = _golden_keys("integrity_soak_default", run_integrity_soak())
    _check_golden("integrity_soak_default", data, update_golden)
