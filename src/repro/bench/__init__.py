"""CacheBench-style experiment harness: trace replayer, metrics, and
the scaled experiment builders every figure/table bench uses.

The robustness soaks live in their own modules (``repro.bench.latency``,
``.fleet``, ``.overload``, ``.failslow``, ``.ablation``) and run from
the shell as ``python -m repro.bench soak <name>``.  This package
imports none of them, so ``python -m`` never finds one already loaded.
"""

from .driver import CacheBench, ReplayConfig
from .metrics import LatencyReservoir, RunResult
from .parallel import PointFailure, SweepError, SweepPoint, point_seed, run_sweep
from .runner import (
    DEFAULT_SCALE,
    Scale,
    build_experiment,
    make_trace,
    run_chaos_soak,
    run_crash_soak,
    run_experiment,
    run_integrity_soak,
)

__all__ = [
    "CacheBench",
    "ReplayConfig",
    "LatencyReservoir",
    "RunResult",
    "Scale",
    "DEFAULT_SCALE",
    "build_experiment",
    "make_trace",
    "run_experiment",
    "run_chaos_soak",
    "run_crash_soak",
    "run_integrity_soak",
    "SweepPoint",
    "PointFailure",
    "SweepError",
    "point_seed",
    "run_sweep",
]
