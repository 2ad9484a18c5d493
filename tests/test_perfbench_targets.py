"""The benchmark's tracer still finds what it wraps in ``src/``.

``perfbench/tracer.py`` wraps entry points by name (``vars(owner)[attr]``
for every ``_targets()`` row) and tells a replay loop's fillable GET
misses from hits and degraded misses by reading the GET's result.  A
rename, a move to a base class or a new result shape in ``src/`` would
break it only in the benchmark's own job; these checks make it break
here, in tier-1.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.bench.runner import Scale
from repro.fleet import FleetCache, FleetConfig, ShardSpec

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_defined_on_its_own_owner():
    tracer = _load_tracer()
    targets = tracer._targets()
    assert targets
    missing = [
        (getattr(owner, "__name__", owner), attr, layer)
        for owner, attr, layer in targets
        if attr not in vars(owner)
    ]
    assert missing == []


def test_get_missed_reads_fleet_get_results():
    """A hit and a degraded miss are not filled; a plain miss is."""
    tracer = _load_tracer()
    scale = Scale(num_superblocks=32, num_ops=1_000)
    shard = ShardSpec("s0", backend="fdp", utilization=0.9, scale=scale).build()
    fleet = FleetCache([shard], FleetConfig(vnodes=8))
    fleet.set(1, 100)
    hit, miss = fleet.get(1), fleet.get(2)
    fleet.kill_shard("s0")
    degraded = fleet.get(2)
    assert (hit.hit, miss.hit, degraded.degraded) == (True, False, True)
    assert not tracer._get_missed(hit)
    assert tracer._get_missed(miss)
    assert not tracer._get_missed(degraded)
