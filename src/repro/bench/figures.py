"""Every figure's sweep points, declared once.

:data:`FIGURES` maps each figure, table, ablation and extension bench
under ``benchmarks/`` to its :class:`~repro.bench.parallel.SweepPoint`
tuple: every arm of every swept value, with its run length, scale and
seed.  The arms of one swept value share its index, and so its
``point_seed``: paired-arm assertions compare runs of one trace.
Figure 11 (two tenants on one device) and the FDP-vs-ZNS extension
build their own devices and are not here.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Tuple

from ..core.policies import DynamicTemperaturePolicy, SingleHandlePolicy, StaticSegregationPolicy
from ..fdp import RuhType, default_configuration
from .parallel import SweepPoint
from .runner import DEFAULT_SCALE

# Operations per arm: enough wraps of the scaled device for interval
# DLWA to converge (validated in EXPERIMENTS.md).  100%-utilization
# arms need more operations to reach GC steady state.
BASE_OPS = 700_000
FULL_UTIL_OPS = 1_400_000


def ops_for(utilization: float) -> int:
    """Run length needed for steady state at a given utilization."""
    return FULL_UTIL_OPS if utilization >= 0.95 else BASE_OPS


# Figures 9 and 12: the paper's small-object working set dwarfs even
# the largest SOC, so the SOC thrashes at every size; the scaled
# working set must preserve that, and bigger SOCs need longer runs.
SWEEP_SCALE = dataclasses.replace(DEFAULT_SCALE, working_set_factor=5.0)

FIG06_UTILIZATIONS = (0.5, 0.75, 0.9, 1.0)
HALF_AND_FULL = (0.5, 1.0)  # Figures 7 and 8
FIG13_UTILIZATIONS = (0.5, 0.75, 1.0)
FIG09_SOC_FRACTIONS = (0.04, 0.16, 0.32, 0.64, 0.90)
FIG12_SOC_FRACTIONS = (0.04, 0.16, 0.32, 0.48, 0.64)
# Table 2's DRAM sizes, as the paper's fractions of its 930 GB cache.
DRAM_RATIOS = {"4GB": 0.0043, "20GB": 0.022, "42GB": 0.045}
WEAR_THRESHOLD = 8
ENGINES = ("set-associative", "kangaroo")

FDP_ARMS = {"Non-FDP": {"fdp": False}, "FDP": {"fdp": True}}
_FULL = {"utilization": 1.0, "num_ops": FULL_UTIL_OPS}
_GEOMETRY = DEFAULT_SCALE.geometry()


def _utilizations(values) -> List[dict]:
    return [{"utilization": u, "num_ops": ops_for(u)} for u in values]


def _soc_sweep(values) -> List[dict]:
    return [
        dict(_FULL, soc_fraction=s, scale=SWEEP_SCALE,
             num_ops=1_400_000 if s <= 0.16 else 2_500_000)
        for s in values
    ]


def _ruhs(ruh_type: RuhType) -> dict:
    return {"fdp": default_configuration(_GEOMETRY.superblock_bytes, ruh_type=ruh_type)}


# name -> (workload, one kwargs dict per swept value, arm -> its kwargs)
_SPECS: Dict[str, Tuple[str, List[dict], Dict[str, dict]]] = {
    "fig05_dlwa_timeline": ("kvcache", _utilizations((0.5,)), FDP_ARMS),
    "fig06_utilization_sweep": ("kvcache", _utilizations(FIG06_UTILIZATIONS), FDP_ARMS),
    "fig07_twitter": ("twitter", _utilizations(HALF_AND_FULL), FDP_ARMS),
    "fig08_wo_kvcache": ("wo-kvcache", _utilizations(HALF_AND_FULL), FDP_ARMS),
    "fig09_soc_sweep": ("kvcache", _soc_sweep(FIG09_SOC_FRACTIONS), FDP_ARMS),
    # The paper's Non-FDP arm: SOC and LOC forced onto one RUH of an
    # FDP-enabled device.
    "fig10_carbon": ("kvcache", [_FULL], {
        "FDP (segregated)": {"fdp": True, "policy": StaticSegregationPolicy},
        "Non-FDP (single RUH)": {"fdp": True, "policy": SingleHandlePolicy},
    }),
    "fig12_model_validation": ("kvcache", _soc_sweep(FIG12_SOC_FRACTIONS), {"FDP": {"fdp": True}}),
    "fig13_wo_util_sweep": ("wo-kvcache", _utilizations(FIG13_UTILIZATIONS), FDP_ARMS),
    "table2_dram_sweep": ("kvcache", [
        dict(_FULL, dram_bytes=max(64 * 1024, int(_GEOMETRY.logical_bytes * ratio)))
        for ratio in DRAM_RATIOS.values()
    ], FDP_ARMS),
    "ablation_ruh_types": ("kvcache", [_FULL], {
        "initially": _ruhs(RuhType.INITIALLY_ISOLATED),
        "persistently": _ruhs(RuhType.PERSISTENTLY_ISOLATED),
    }),
    "ablation_ru_aware_eviction": ("kvcache", [_FULL], {
        "plain FIFO": {"fdp": True},
        "RU-aware + TRIM": {"fdp": True, "cache_overrides": {"ru_aware_trim": True}},
    }),
    "ablation_dynamic_placement": ("kvcache", [_FULL], {
        "static": {"fdp": True, "policy": StaticSegregationPolicy},
        "dynamic": {"fdp": True, "policy": functools.partial(
            DynamicTemperaturePolicy, epoch_bytes=8 * 1024 * 1024
        )},
    }),
    "ablation_wear_leveling": ("kvcache", [_FULL], {
        "off": {"fdp": True},
        f"threshold={WEAR_THRESHOLD}": {
            "fdp": True, "device_overrides": {"wear_level_threshold": WEAR_THRESHOLD}
        },
    }),
    "ext_kangaroo": ("kvcache", [dict(_FULL, num_ops=BASE_OPS)], {
        f"{engine} {label}": {**arm, "cache_overrides": {"soc_engine": engine}}
        for engine in ENGINES
        for label, arm in FDP_ARMS.items()
    }),
}

FIGURES: Dict[str, Tuple[SweepPoint, ...]] = {
    name: tuple(
        SweepPoint(name, index, workload, {**value, **arm}, arm=label)
        for index, value in enumerate(values)
        for label, arm in arms.items()
    )
    for name, (workload, values, arms) in _SPECS.items()
}


def smoke_points() -> List[SweepPoint]:
    """Each entry's last point (its top swept value, on the arm the
    figure is about) with only the device shrunk to 64 MiB physical
    and the run to 40k ops, so the sweep finishes in seconds."""
    points = []
    for *_, point in FIGURES.values():
        scale = dataclasses.replace(point.kwargs.get("scale", DEFAULT_SCALE), num_superblocks=128)
        kwargs = {**point.kwargs, "scale": scale, "num_ops": 40_000}
        points.append(dataclasses.replace(point, kwargs=kwargs))
    return points
