"""Self-test of the benchmark.  Not collected by tier-1; run with

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_py(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    started = time.monotonic()
    proc = run_py("--smoke", "--seed", "5", "--out", str(out))
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60, f"smoke suite took {elapsed:.0f} s"
    return json.loads(out.read_text())


def test_smoke_emits_every_listed_metric(smoke):
    listed = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    emitted = set()
    for name in WORKLOADS:
        report = smoke["workloads"][name]
        for group in ("end_to_end", "per_layer"):
            for metric, entry in report[group].items():
                assert math.isfinite(entry["value"]), (name, metric)
                emitted.add(metric)
    assert emitted == listed


def test_every_check_passes_traced_and_untraced_alike(smoke):
    for name in WORKLOADS:
        report = smoke["workloads"][name]
        assert report["correct"] and report["ops_failed"] == 0, name
        assert report["checks"]["sim_identical_across_repeats"], name
        assert report["checks"]["tracing_invisible"], name
        assert report["checks"]["tracer_saw_every_op"], name
    assert smoke["cross_checks"] and all(smoke["cross_checks"].values())


def test_layer_self_times_add_up_to_the_traced_wall(smoke):
    for name in WORKLOADS:
        layers = smoke["workloads"][name]["per_layer"]
        shares = sum(
            entry["value"]
            for metric, entry in layers.items()
            if metric.endswith(".self_share") and metric != "workloads.self_share"
        )
        total = shares + layers["trace.unattributed_share"]["value"]
        assert total == pytest.approx(1.0, abs=0.02), name


def test_tracer_puts_every_original_back():
    targets = tracer._targets()
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    with tracer.Tracer():
        for (owner, attr, _), original in zip(targets, originals):
            assert vars(owner)[attr] is not original
    for (owner, attr, _), original in zip(targets, originals):
        assert vars(owner)[attr] is original


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_run_prints_the_listed_metrics(trace):
    # Seed 4 is one on which the write-only generator, asked for 20 000
    # ops, returns 19 956: the workload must still replay all 20 000.
    proc = run_py(
        "--workload", "wo_nonfdp", "--seed", "4", "--seconds", "1",
        "--trace", trace, "--smoke",
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    # One untraced replay of 20 000 ops, and with --trace 1 a traced one.
    assert line["attempted"] == (40_000 if trace == "1" else 20_000)
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0


def test_no_result_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out")
    )
    proc = run_py(
        "--workload", "kv_fdp", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts(smoke):
    same = compare.compare_results(smoke, smoke, SPEC)
    assert same and not [r for r in same if r["verdict"] in ("REGRESSION", "changed")]

    def doctored(metric: str, factor: float) -> dict:
        other = copy.deepcopy(smoke)
        entry = other["workloads"]["kv_fdp"]["end_to_end"][metric]
        entry["value"] *= factor
        entry.pop("samples", None)
        return other

    def verdict(rows, metric):
        (row,) = [
            r for r in rows if r["workload"] == "kv_fdp" and r["metric"] == metric
        ]
        return row["verdict"]

    steady = doctored("replay_kops_per_s", 1.0)  # no samples: spread 0
    slower = compare.compare_results(steady, doctored("replay_kops_per_s", 0.8), SPEC)
    assert verdict(slower, "replay_kops_per_s") == "REGRESSION"
    faster = compare.compare_results(steady, doctored("replay_kops_per_s", 1.5), SPEC)
    assert verdict(faster, "replay_kops_per_s") == "ok"
    drifted = compare.compare_results(smoke, doctored("sim_hit_ratio", 0.98), SPEC)
    assert verdict(drifted, "sim_hit_ratio") == "REGRESSION"

    noisy = copy.deepcopy(steady)
    noisy["workloads"]["kv_fdp"]["end_to_end"]["replay_kops_per_s"]["samples"] = [50, 80, 90]
    unresolved = compare.compare_results(noisy, doctored("replay_kops_per_s", 0.8), SPEC)
    assert verdict(unresolved, "replay_kops_per_s") == "unresolved"

    failing = copy.deepcopy(smoke)
    failing["workloads"]["kv_fdp"]["ops_failed"] = 7
    rows = compare.compare_results(smoke, failing, SPEC)
    assert verdict(rows, "ops_failed/ops_attempted") == "REGRESSION"
