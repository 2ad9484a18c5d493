"""perfbench: what a cache replay costs the host, and what it simulates.

Two ways to run it:

``python3 perfbench/run.py [--seed N] [--workload NAME] [--smoke] [--out FILE]``
    the whole suite: every workload, three untraced repeats and one
    traced run each, every metric printed by name with its unit, all
    correctness checks; exits non-zero if a check fails.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload for the benchmark driver: the last line of standard
    output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (the end-to-end metrics of
    ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones with
    ``--trace 1``).

``--calibrate`` runs two untraced sets back to back and prints how far
they differ next to each metric's bound.  See ``README.md`` for what
each workload and metric means and how the layers' numbers relate to
the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from compare import compare_results, print_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SUITE_REPEATS = 3
DRIVER_REPEATS = 2
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170

#: Simulated metrics read from the replay's own result.  The benchmark
#: file lists some of them with the per-layer metrics (see README).
SIM_METRICS = (
    "sim_dlwa",
    "sim_hit_ratio",
    "sim_p50_read_us",
    "sim_p99_read_us",
    "sim_p99_write_us",
    "sim_kops_per_s",
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def units_of(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ----------------------------------------------------------------------
# one worker process
# ----------------------------------------------------------------------


def spawn_worker(
    workload: str, seed: int, smoke: bool, *, traced: bool = False, setup_only: bool = False
) -> dict:
    """Run ``worker.py`` once and return its report."""
    env = dict(os.environ)
    # Single-threaded, and the same string hashing in every process.
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
    ]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker for {workload} printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def scaled_chunk_s(report: dict) -> List[float]:
    """A replay's chunk seconds at reference machine speed."""
    return [c * s for c, s in zip(report["chunk_s"], report["chunk_speed"])]


def steady_replay_s(repeats: List[dict]) -> float:
    """Replay seconds at reference machine speed, episodes dropped.

    Each chunk's time is first scaled by the machine speed measured
    around that chunk (``worker.reference_loop``), which takes out the
    minutes-long slow phases of a shared box, also when one starts or
    ends inside a replay.  Every repeat does identical work chunk by
    chunk, and what is left of the disturbance lasts a second or a few,
    so each 50k-op chunk is then taken at its median over the repeats:
    with three that drops the episodes without picking chunks by how
    hard they are.  (Not the minimum: after scaling the error has both
    signs, and a minimum would pick the chunks whose speed was read too
    low.)
    """
    scaled = (scaled_chunk_s(r) for r in repeats)
    return sum(statistics.median(times) for times in zip(*scaled))


def note(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def measure(
    workload: str,
    seed: int,
    smoke: bool,
    *,
    repeats: int,
    budget_s: Optional[float] = None,
    traced: bool,
    setup_samples: int = SETUP_SAMPLES,
) -> dict:
    """All runs of one workload, reduced to its report.

    ``repeats`` untraced replays are made, fewer (but at least one) when
    ``budget_s`` is given and the next one, with the set-up samples still
    to take, would end the run later than that.
    """
    started = time.monotonic()
    untraced: List[dict] = []
    while len(untraced) < repeats:
        note(f"{workload}: untraced replay {len(untraced) + 1}")
        report = spawn_worker(workload, seed, smoke)
        untraced.append(report)
        if report["error"]:
            break
        if budget_s is not None:
            spent = time.monotonic() - started
            next_replay = spent / len(untraced)
            more_setups = max(0, setup_samples - len(untraced) - 1) * report["setup_s"]
            if spent + next_replay + more_setups > budget_s:
                break
    setups = list(untraced)
    while len(setups) < setup_samples and not untraced[-1]["error"]:
        note(f"{workload}: set-up only {len(setups) + 1}")
        setups.append(spawn_worker(workload, seed, smoke, setup_only=True))
    trace_report = None
    if traced and not untraced[-1]["error"]:
        note(f"{workload}: traced replay")
        trace_report = spawn_worker(workload, seed, smoke, traced=True)

    replays = untraced + ([trace_report] if trace_report else [])
    ops = untraced[0]["ops"]
    out = {
        "ops": ops,
        "repeats": len(untraced),
        "ops_attempted": ops * len(replays),
        "checks": {},
        "end_to_end": {},
    }
    errors = [r["error"] for r in replays if r["error"]]
    if errors:
        out["checks"]["replay_completed"] = False
        out["error"] = errors[0]
        out["correct"] = False
        out["ops_failed"] = out["ops_attempted"]
        return out

    checks = out["checks"]
    for name in untraced[0]["checks"]:
        checks[name] = all(r["checks"][name] for r in replays)
    first = untraced[0]
    checks["sim_identical_across_repeats"] = all(
        r["sim"] == first["sim"] and r["counters"] == first["counters"]
        for r in untraced
    )
    if trace_report is not None:
        checks["tracing_invisible"] = (
            trace_report["sim"] == first["sim"]
            and trace_report["counters"] == first["counters"]
        )
        checks["tracer_saw_every_op"] = trace_report["trace"]["ops_seen"] == ops

    e2e = out["end_to_end"]
    e2e["replay_kops_per_s"] = {
        "value": ops / steady_replay_s(untraced) / 1e3,
        "samples": [ops / sum(scaled_chunk_s(r)) / 1e3 for r in untraced],
    }
    raw_replay_s = statistics.median(r["replay_s"] for r in untraced)
    # What this box delivered, and how fast it was running meanwhile.
    out["per_layer"] = {
        "host.raw_kops_per_s": {"value": ops / raw_replay_s / 1e3},
        "host.speed": {"value": statistics.median(r["host_speed"] for r in untraced)},
    }
    # At reference speed too, by the samples taken right after set-up.
    setup_s = [r["setup_s"] * r["setup_speed"] for r in setups]
    e2e["setup_s"] = {"value": statistics.median(setup_s), "samples": setup_s}
    rss = [r["peak_rss_mib"] for r in untraced]
    e2e["peak_rss_mib"] = {"value": statistics.median(rss), "samples": rss}
    for name in SIM_METRICS:
        if name in first["sim"]:
            e2e[name] = {"value": first["sim"][name]}
    out["counters"] = first["counters"]
    if trace_report is not None:
        out["per_layer"].update(
            per_layer_metrics(trace_report, steady_replay_s(untraced))
        )
    out["correct"] = all(checks.values())
    out["ops_failed"] = (
        sum(r["failed_ops"] for r in replays) if out["correct"] else out["ops_attempted"]
    )
    return out


def per_layer_metrics(report: dict, untraced_replay_s: float) -> Dict[str, dict]:
    """The traced run's numbers, by the names ``BENCHMARK.json`` lists.

    ``untraced_replay_s`` is at reference speed, as the traced wall is
    made for ``trace.overhead_ratio``; the layers' seconds are raw.
    """
    trace = report["trace"]
    wall = report["replay_s"]
    ops = report["ops"]
    values: Dict[str, float] = {}
    for layer, row in trace["layers"].items():
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_s"] = row["self_s"]
        # Of the replay wall.  Trace synthesis happens before it, so
        # the `workloads` share is a comparison, not a part of the sum.
        values[f"{layer}.self_share"] = row["self_s"] / wall
    synth_s = trace["layers"]["workloads"]["self_s"]
    values["workloads.synth_s"] = synth_s
    values["workloads.synth_ns_per_op"] = synth_s * 1e9 / ops
    for method in ("add", "may_contain", "rebuild"):
        values[f"cache.bloom.{method}.calls"] = trace["spans"][f"cache.bloom.{method}"]["calls"]
    values.update(report["counters"])
    nand_pages = report["counters"]["ssd.ftl.nand_pages_written"]
    if nand_pages:
        values["ssd.ftl.host_ns_per_nand_page"] = (
            trace["layers"]["ssd.ftl"]["self_s"] * 1e9 / nand_pages
        )
    values["trace.spans"] = sum(s["calls"] for s in trace["spans"].values())
    values["trace.overhead_ratio"] = wall * report["host_speed"] / untraced_replay_s
    values["trace.unattributed_share"] = (wall - trace["attributed_s"]) / wall
    return {name: {"value": value} for name, value in values.items()}


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------


def cross_checks(reports: Dict[str, dict]) -> Dict[str, bool]:
    """Checks that pair workloads; a failure fails both of the pair."""

    def sim(name: str) -> Dict[str, float]:
        return {
            k: v["value"] for k, v in reports[name]["end_to_end"].items() if k in SIM_METRICS
        }

    def both(*names: str) -> bool:
        return all(n in reports and "error" not in reports[n] for n in names)

    results = {}
    if both("kv_fdp", "kv_fdp_kernel"):
        results["kernel_equals_scalar"] = (
            sim("kv_fdp") == sim("kv_fdp_kernel")
            and reports["kv_fdp"]["counters"] == reports["kv_fdp_kernel"]["counters"]
        )
        if not results["kernel_equals_scalar"]:
            fail(reports, "kernel_equals_scalar", "kv_fdp", "kv_fdp_kernel")
    if both("kv_fdp", "kv_nonfdp"):
        fdp, non = sim("kv_fdp"), sim("kv_nonfdp")
        results["fdp_keeps_hit_ratio"] = fdp["sim_hit_ratio"] == non["sim_hit_ratio"]
        results["fdp_dlwa_not_above_nonfdp"] = fdp["sim_dlwa"] <= non["sim_dlwa"]
        for name in ("fdp_keeps_hit_ratio", "fdp_dlwa_not_above_nonfdp"):
            if not results[name]:
                fail(reports, name, "kv_fdp", "kv_nonfdp")
    return results


def fail(reports: Dict[str, dict], check: str, *workloads: str) -> None:
    for name in workloads:
        reports[name]["checks"][check] = False
        reports[name]["correct"] = False
        reports[name]["ops_failed"] = reports[name]["ops_attempted"]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def run_suite(names: List[str], seed: int, smoke: bool, traced: bool) -> dict:
    reports = {
        name: measure(name, seed, smoke, repeats=SUITE_REPEATS, traced=traced)
        for name in names
    }
    return {
        "benchmark": "perfbench",
        "seed": seed,
        "smoke": smoke,
        "environment": environment(),
        "cross_checks": cross_checks(reports),
        "workloads": reports,
    }


def print_suite(result: dict, units: Dict[str, str]) -> None:
    for name, report in result["workloads"].items():
        print(
            f"== {name}: {report['ops']} ops x {report['repeats']} untraced repeats, "
            f"correct={report['correct']}, ops_attempted={report['ops_attempted']}, "
            f"ops_failed={report['ops_failed']}"
        )
        failed = [check for check, ok in report["checks"].items() if not ok]
        if failed:
            print(f"   FAILED CHECKS: {', '.join(failed)}")
        if "error" in report:
            print(report["error"])
            continue
        for group in ("end_to_end", "per_layer"):
            for metric, entry in report[group].items():
                line = f"   {metric:36s} {entry['value']:>16.6g} {units.get(metric, '')}"
                if "samples" in entry:
                    shown = " ".join(f"{s:.4g}" for s in entry["samples"])
                    line += f"   [{shown}]"
                print(line)
    for check, ok in result["cross_checks"].items():
        print(f"cross-check {check}: {'ok' if ok else 'FAILED'}")


def calibrate(names: List[str], seed: int, smoke: bool, spec: dict) -> int:
    """Two untraced sets back to back, compared with the bounds."""
    first = run_suite(names, seed, smoke, traced=False)
    second = run_suite(names, seed, smoke, traced=False)
    rows = compare_results(first, second, spec)
    print_rows(rows)
    correct = all(
        r["correct"] for s in (first, second) for r in s["workloads"].values()
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# the driver's single-workload run
# ----------------------------------------------------------------------


def driver_line(report: dict, spec: dict, traced: bool) -> dict:
    """The one JSON object the benchmark driver reads.

    The driver wants every listed metric on every workload, so a
    per-layer metric that does not exist on this one (a layer it never
    enters, a ratio over zero events) reads 0 here; the suite's own
    output leaves such a metric out instead.
    """
    measured = {name: entry["value"] for name, entry in report["end_to_end"].items()}
    metrics = {}
    if traced:
        measured.update((n, e["value"]) for n, e in report["per_layer"].items())
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    return {
        "correct": report["correct"],
        "attempted": report["ops_attempted"],
        "failed": report["ops_failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="one of the workloads of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        help="with --trace 0: the run's time budget; the untraced replay is made "
        "twice if the run still ends within it, else once "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="20k ops per workload")
    parser.add_argument("--out", help="write the suite's full result here as JSON")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.trace:
            report = measure(
                args.workload, args.seed, args.smoke,
                repeats=1, traced=True, setup_samples=0,
            )
        else:
            report = measure(
                args.workload, args.seed, args.smoke,
                repeats=DRIVER_REPEATS,
                budget_s=spec["run_seconds"] if args.seconds is None else args.seconds,
                traced=False,
            )
        if "error" in report:
            print(report["error"], file=sys.stderr)
            return 1
        host = report["per_layer"]
        note(
            f"{args.workload}: {report['repeats']} untraced replay(s), "
            f"{host['host.raw_kops_per_s']['value']:.1f} kops/s raw at "
            f"{host['host.speed']['value']:.2f}x reference speed"
        )
        print(json.dumps(driver_line(report, spec, bool(args.trace))))
        return 0

    if args.calibrate:
        return calibrate(names, args.seed, args.smoke, spec)

    result = run_suite(names, args.seed, args.smoke, traced=True)
    print_suite(result, units_of(spec))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    correct = all(r["correct"] for r in result["workloads"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
