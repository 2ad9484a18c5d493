"""CacheBench-style experiment runner driven by a JSON config.

The paper runs every experiment through CacheBench, a tool that
invokes the CacheLib API in-process from a declarative config.  This
runner does the same for the reproduction:

    python -m repro.tools.cachebench --config experiment.json
    python -m repro.tools.cachebench --config experiment.json --out r.json

Config format (all keys optional; defaults reproduce the paper's
standard arm)::

    {
      "workload": {"name": "kvcache", "num_ops": 700000, "seed": 42},
      "cache":    {"utilization": 1.0, "soc_fraction": 0.04,
                   "dram_bytes": null, "fdp": true,
                   "soc_engine": "set-associative"},
      "device":   {"superblocks": 512, "pages_per_block": 32,
                   "op_fraction": 0.07},
      "replay":   {"poll_interval_ops": 50000}
    }

``soc_engine`` is ``"set-associative"``, ``"kangaroo"`` or ``"nemo"``;
every arm is built by :func:`~repro.bench.runner.run_experiment`.

The result JSON carries every metric of
:class:`~repro.bench.metrics.RunResult`, including the interval-DLWA
series, so figures can be re-plotted from it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Dict, List, Optional

from ..bench.driver import ReplayConfig
from ..bench.metrics import RunResult
from ..bench.runner import Scale, run_experiment

__all__ = ["main", "run_from_config", "result_to_dict"]

DEFAULT_CONFIG: Dict[str, Any] = {
    "workload": {"name": "kvcache", "num_ops": 700_000, "seed": 42},
    "cache": {
        "utilization": 1.0,
        "soc_fraction": 0.04,
        "dram_bytes": None,
        "fdp": True,
        "soc_engine": "set-associative",
    },
    "device": {
        "superblocks": 512,
        "pages_per_block": 32,
        "op_fraction": 0.07,
    },
    "replay": {"poll_interval_ops": 50_000},
}


def _merged(config: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    merged = {k: dict(v) for k, v in DEFAULT_CONFIG.items()}
    for section, values in (config or {}).items():
        if section not in merged:
            raise ValueError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ValueError(
                f"config section {section!r} must be a JSON object, "
                f"got {type(values).__name__}"
            )
        unknown = set(values) - set(merged[section])
        if unknown:
            raise ValueError(
                f"unknown keys in {section!r}: {sorted(unknown)}"
            )
        merged[section].update(values)
    return merged


def run_from_config(config: Optional[Dict[str, Any]] = None) -> RunResult:
    """Run one experiment arm described by a config dict."""
    cfg = _merged(config)
    scale = Scale(
        num_superblocks=int(cfg["device"]["superblocks"]),
        pages_per_block=int(cfg["device"]["pages_per_block"]),
        device_op_fraction=float(cfg["device"]["op_fraction"]),
    )
    replay = ReplayConfig(
        poll_interval_ops=int(cfg["replay"]["poll_interval_ops"]),
    )
    dram = cfg["cache"]["dram_bytes"]
    return run_experiment(
        cfg["workload"]["name"],
        fdp=bool(cfg["cache"]["fdp"]),
        utilization=float(cfg["cache"]["utilization"]),
        soc_fraction=float(cfg["cache"]["soc_fraction"]),
        dram_bytes=int(dram) if dram is not None else None,
        num_ops=int(cfg["workload"]["num_ops"]),
        seed=int(cfg["workload"]["seed"]),
        scale=scale,
        replay=replay,
        cache_overrides={"soc_engine": str(cfg["cache"]["soc_engine"])},
    )


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Serialize a RunResult (incl. the interval series) to JSON types."""
    data = dataclasses.asdict(result)
    data["throughput_kops"] = result.throughput_kops
    return data


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-cachebench",
        description="CacheBench-style runner for the reproduction",
    )
    parser.add_argument(
        "--config", help="JSON config file (defaults reproduce the paper)"
    )
    parser.add_argument("--out", help="write full results as JSON")
    parser.add_argument(
        "--progress", action="store_true", help="print poll progress"
    )
    args = parser.parse_args(argv)

    config = None
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    if args.progress:
        # Interval-DLWA progress doubles as a liveness indicator; the
        # poll cadence comes from the replay config.
        print("running (interval DLWA printed per poll)...")
    result = run_from_config(config)
    if args.progress:
        for point in result.interval_series:
            print(
                f"  ops={point.ops} interval_dlwa={point.interval_dlwa:.2f}"
            )
    print(result.summary_row())
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result_to_dict(result), fh, indent=2)
        print(f"full results written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
