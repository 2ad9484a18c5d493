"""Golden fixtures for the array-shaped entry points.

Pins a :class:`KernelBench` replay (attached hooks) over the standard
scaled arms, and a ``write_arrays`` device stream, each compared
field-by-field against committed JSON under ``tests/golden/``.  The
device fixture was recorded when ``write_arrays`` coalesced contiguous
commands into shared extents; it now pins that the plain per-command
loop reproduces what the coalescer recorded.

Regenerate deliberately with::

    pytest tests/test_kernel_golden.py --update-golden
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.bench import Scale, build_experiment, make_trace
from repro.kernel import KernelBench
from repro.ssd import SimulatedSSD
from tests.test_differential_batch import GEOMETRY
from tests.test_differential_kernel import write_stream
from tests.test_golden_regression import _check_golden

_SCALE = Scale(num_superblocks=96, num_ops=30_000)

CONFIGS = {
    "kernel_kvcache_fdp_util90": dict(fdp=True, utilization=0.9),
    "kernel_kvcache_nonfdp_util90": dict(fdp=False, utilization=0.9),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_kernel_replay(name: str, update_golden: bool) -> None:
    cache = build_experiment(scale=_SCALE, **CONFIGS[name])
    trace = make_trace(
        "kvcache", cache.config.nvm_bytes, _SCALE, seed=20260805
    )
    result = KernelBench().run(cache, trace, name=name)
    _check_golden(name, dataclasses.asdict(result), update_golden)


def test_golden_write_arrays_stream(update_golden: bool) -> None:
    """Device-layer fixture: a write_arrays stream's completion clock,
    write amplification, GC activity, and health, over arbitrary
    splits of the command array."""
    device = SimulatedSSD(GEOMETRY, fdp=True)
    stream = write_stream(0xA11E, 4000)
    lbas, npages, payloads = stream
    rng = random.Random(0xA11E)
    dones = []
    now = 0
    start = 0
    while start < len(lbas):
        stop = min(len(lbas), start + rng.randrange(1, 96))
        part = device.write_arrays(
            lbas[start:stop], npages[start:stop], None, now,
            payloads[start:stop],
        )
        dones.extend(part)
        now = part[-1]
        start = stop
    snap = device.snapshot()
    health = device.get_health_log()
    data = {
        "final_clock_ns": dones[-1],
        "completion_checksum": sum(dones) % (1 << 61),
        "host_pages_written": snap.host_pages_written,
        "nand_pages_written": snap.nand_pages_written,
        "gc_pages_migrated": snap.gc_pages_migrated,
        "gc_victim_selections": snap.gc_victim_selections,
        "dlwa": snap.dlwa,
        "events_recorded": len(device.events.recent(100_000)),
        "media_relocated_events": device.events.media_relocated_events,
        "percent_used": health.percent_used,
        "energy_kwh": device.energy_kwh(now),
    }
    device.check_invariants()
    _check_golden("kernel_write_arrays_stream", data, update_golden)
