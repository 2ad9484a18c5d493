"""Compare two perfbench results: ``compare.py OLD.json NEW.json``.

Both files are what ``run.py --out`` writes.  Every (workload, metric)
the two share gets one row with both values and the ratio new/old, so
the old value is always the base.  An end-to-end metric is judged by
its direction and bound in ``BENCHMARK.json``:

``ok``          not worse than the old value by more than the bound
``REGRESSION``  worse by more than the bound
``unresolved``  the repeats of one side differ among themselves by more
                than the bound, so this pair of files cannot tell

Simulated metrics repeat exactly for one seed, so when both files were
made with the same seed every ``sim_*`` metric is held to
:data:`SIM_BOUND`, whatever ``BENCHMARK.json`` allows across seeds; one
the file lists without a bound is held to it always.  The other
per-layer rows carry no verdict on host times and ``same``/``changed``
on counts.  Exits non-zero on a regression or when a workload's share
of failed ops grew.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Bound on simulated metrics at equal seed.
SIM_BOUND = 0.005

#: Units of per-layer metrics that are host time, and so never repeat.
HOST_TIME_UNITS = (
    "s", "share", "ns/op", "ns/page", "traced/plain", "kops/s", "x_reference"
)


def spread(samples: List[float]) -> float:
    """Run-to-run spread as a share of the median.

    The distance between the quartiles when there are enough samples
    for them to mean something, the full range otherwise.
    """
    if len(samples) < 2:
        return 0.0
    mid = statistics.median(samples)
    if not mid:
        return 0.0
    if len(samples) < 4:
        return (max(samples) - min(samples)) / mid
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / mid


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is, as a share of ``old`` (negative: better)."""
    if old == new:
        return 0.0
    if not old:
        return float("inf") if (new > old) == (better == "lower") else float("-inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def compare_results(old: dict, new: dict, spec: dict) -> List[dict]:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    same_inputs = (old["seed"], old["smoke"]) == (new["seed"], new["smoke"])
    rows: List[dict] = []
    for workload, old_report in old["workloads"].items():
        new_report = new["workloads"].get(workload)
        if new_report is None:
            continue
        rows.append(_failed_share_row(workload, old_report, new_report))
        for group in ("end_to_end", "per_layer"):
            old_group = old_report.get(group, {})
            new_group = new_report.get(group, {})
            for metric, old_entry in old_group.items():
                if metric not in new_group or metric not in listed:
                    continue
                new_entry = new_group[metric]
                info = listed[metric]
                bound = bounds.get(metric)
                if metric.startswith("sim_") and (bound is None or same_inputs):
                    bound = SIM_BOUND
                rows.append(
                    _metric_row(workload, metric, info, bound, old_entry, new_entry)
                )
    return rows


def _metric_row(
    workload: str, metric: str, info: dict, bound, old_entry: dict, new_entry: dict
) -> dict:
    old, new = old_entry["value"], new_entry["value"]
    row = {
        "workload": workload,
        "metric": metric,
        "unit": info["unit"],
        "old": old,
        "new": new,
        "ratio": new / old if old else None,
        "bound": bound,
    }
    if bound is None:
        if info["unit"] in HOST_TIME_UNITS:
            row["verdict"] = ""
        else:
            row["verdict"] = "same" if old == new else "changed"
        return row
    own_spread = max(
        spread(old_entry.get("samples", [])), spread(new_entry.get("samples", []))
    )
    row["spread"] = own_spread
    if own_spread > bound:
        row["verdict"] = "unresolved"
    elif worse_by(old, new, info["better"]) > bound:
        row["verdict"] = "REGRESSION"
    else:
        row["verdict"] = "ok"
    return row


def _failed_share_row(workload: str, old_report: dict, new_report: dict) -> dict:
    old = old_report["ops_failed"] / old_report["ops_attempted"]
    new = new_report["ops_failed"] / new_report["ops_attempted"]
    return {
        "workload": workload,
        "metric": "ops_failed/ops_attempted",
        "unit": "share",
        "old": old,
        "new": new,
        "ratio": new / old if old else None,
        "bound": 0.0,
        "verdict": "REGRESSION" if new > old else "ok",
    }


def print_rows(rows: List[dict]) -> None:
    print(
        f"{'workload':14s} {'metric':34s} {'old':>14s} {'new':>14s} "
        f"{'new/old':>8s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    for row in rows:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.4f}"
        bound = "" if row["bound"] is None else f"{row['bound']:.3f}"
        own = f"{row['spread']:.3f}" if "spread" in row else ""
        print(
            f"{row['workload']:14s} {row['metric']:34s} {row['old']:>14.6g} "
            f"{row['new']:>14.6g} {ratio:>8s} {bound:>6s} {own:>7s}  "
            f"{row['verdict']} [{row['unit']}]"
        )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results: Dict[str, dict] = {}
    for side, path in zip(("old", "new"), argv):
        results[side] = json.loads(Path(path).read_text())
    spec = json.loads(BENCHMARK.read_text())
    rows = compare_results(results["old"], results["new"], spec)
    print_rows(rows)
    regressions = [r for r in rows if r["verdict"] == "REGRESSION"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"{len(regressions)} regression(s), {len(unresolved)} unresolved")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
