"""``python -m repro.bench soak <name> [--smoke] [--seed N] [--json PATH] [-v]``
and ``python -m repro.bench sweep --smoke [--workers N]``

``soak`` runs one robustness soak, prints its table and exits 1 iff a
gate fails.  ``--json`` also writes the full result; ``-v`` prints
per-window progress where the soak has it.

``sweep`` replays one point per :data:`~repro.bench.figures.FIGURES`
entry across worker processes (:mod:`repro.bench.parallel`) and prints
DLWA, hit ratio and simulated throughput per point.  Only the CI-sized
``--smoke`` sweep is wired up; the full-size figures run as
``benchmarks/`` tests.
"""

from __future__ import annotations

import argparse
import inspect
import json
import time
from typing import Callable, Dict, List, NamedTuple, Optional

from . import ablation
from .failslow import run_failslow_soak
from .figures import smoke_points
from .fleet import SMOKE_SCALE, run_fleet_soak
from .latency import run_latency_soak
from .metrics import SoakResult
from .overload import run_overload_soak
from .parallel import run_sweep
from .runner import run_chaos_soak, run_crash_soak, run_integrity_arms


class Soak(NamedTuple):
    """A soak, the kwargs of its CI-sized run (``--smoke``) and those
    of its full run where they differ from ``run``'s defaults."""

    run: Callable[..., SoakResult]
    smoke: Dict[str, object]
    full: Dict[str, object] = {}


SOAKS: Dict[str, Soak] = {
    # Both defaults already run in seconds: the smoke run is the soak.
    "chaos": Soak(run_chaos_soak, {}),
    "crash": Soak(run_crash_soak, {}),
    "integrity": Soak(run_integrity_arms, dict(span=512, phases=4, commands_per_phase=96)),
    "latency": Soak(run_latency_soak, dict(num_ops=120_000)),
    "fleet": Soak(run_fleet_soak, dict(num_shards=4, scale=SMOKE_SCALE)),
    # More shards run the open loop nearer critical load, so the
    # drained-but-jittery recovered p99 sits higher over pre at full
    # scale; 1.5 still separates it from the ungoverned collapse.
    "overload": Soak(run_overload_soak, dict(num_shards=2, tolerance=0.5), dict(tolerance=1.5)),
    "failslow": Soak(
        run_failslow_soak, dict(num_shards=3, scale=SMOKE_SCALE, ops_per_shard=12_000)
    ),
    "ablation": Soak(
        ablation.run_ablation,
        dict(num_ops=ablation.SMOKE_OPS, scale=ablation.SMOKE_SCALE, soak_ops=10_000),
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench")
    commands = parser.add_subparsers(dest="command", required=True)
    soak = commands.add_parser("soak", help="run one robustness soak; exit 1 if a gate fails")
    soak.add_argument("name", choices=sorted(SOAKS))
    soak.add_argument("--smoke", action="store_true", help="the CI-sized run")
    soak.add_argument("--seed", type=lambda s: int(s, 0), help="override the soak's seed")
    soak.add_argument("--json", metavar="PATH", help="also write the full result as JSON")
    soak.add_argument("-v", "--verbose", action="store_true")
    sweep = commands.add_parser("sweep", help="one point per figure across worker processes")
    sweep.add_argument("--smoke", action="store_true", help="the CI-sized run (required)")
    sweep.add_argument("--workers", type=int, help="worker processes (default: CPU count)")
    args = parser.parse_args(argv)
    if args.command == "sweep":
        if not args.smoke:
            sweep.error("only the --smoke sweep is wired up as a CLI")
        return _sweep(args.workers)

    entry = SOAKS[args.name]
    kwargs = dict(entry.smoke if args.smoke else entry.full)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.verbose and "verbose" in inspect.signature(entry.run).parameters:
        kwargs["verbose"] = True
    start = time.perf_counter()
    result = entry.run(**kwargs)
    print(result.table())
    print(f"({time.perf_counter() - start:.1f}s wall)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
    return 0 if result.acceptance else 1


def _sweep(workers: Optional[int]) -> int:
    start = time.perf_counter()
    results = run_sweep(smoke_points(), workers=workers)
    print(f"{len(results)} points in {time.perf_counter() - start:.1f}s")
    print(f"{'point':<56} {'DLWA':>6} {'hit%':>6} {'kops':>8}")
    for r in results:
        print(
            f"{r.name:<56} {r.steady_dlwa:>6.2f} {r.hit_ratio * 100:>6.1f} "
            f"{r.throughput_kops:>8.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
