"""Golden fixture for the FTL write path under every injector at once.

One seeded command stream through a device carrying program / erase /
UECC rates, a latency-spike rate, a scripted erase failure, an
``OP_POWER`` cut mid-command, a corrupting latent model (rate plus a
scripted ``OP_SILENT`` page) and the patrol scrubber.  The fixture was
recorded on the commit *before* the FTL's write paths were collapsed
into one (when such a device ran the per-page loop), so it pins the
hooked extent path to that loop's exact behaviour independently of the
oracle in ``tests/reference_ftl.py`` — identity to the old code does
not rest only on code that moved.

Regenerate deliberately with::

    pytest tests/test_ftl_golden.py --update-golden
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json

from repro.faults.latent import LatentErrorConfig
from repro.faults.model import FaultConfig
from repro.faults.plan import OP_POWER, OP_SILENT, ScriptedFault
from repro.ssd import SimulatedSSD
from repro.ssd.scrub import ScrubConfig
from tests.test_differential_batch import (
    GEOMETRY,
    oob_image,
    replay,
    synthetic_commands,
)
from tests.test_golden_regression import _check_golden

SEED = 0x18F7


def sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def build_device(
    retention_rate: float = 2e-4, sched: bool = False
) -> SimulatedSSD:
    return SimulatedSSD(
        GEOMETRY,
        fdp=True,
        sched=sched,
        faults=FaultConfig(
            seed=SEED,
            read_uecc_rate=2e-3,
            program_fail_rate=6e-3,
            erase_fail_rate=3e-4,
            latency_spike_rate=1e-3,
            plan=(
                ScriptedFault(op="erase", superblock=5, cycle=2),
                ScriptedFault(op=OP_POWER, op_index=9_000),
            ),
        ),
        latent=LatentErrorConfig(
            seed=SEED,
            read_disturb_per_read=0.02,
            retention_rate=retention_rate,
            wear_factor=0.05,
            silent_corruption_rate=2e-3,
            plan=(ScriptedFault(op=OP_SILENT, op_index=4_321),),
        ),
        scrub=ScrubConfig(
            interval_ns=400_000, refresh_threshold=0.6, retire_after_failures=3
        ),
        journal_flush_interval=7,
        checkpoint_interval_pages=96,
    )


def test_golden_ftl_fault_stream(update_golden: bool) -> None:
    device = build_device()
    commands = synthetic_commands(SEED, 4_000, use_pids=True)
    log = replay(device, commands)
    device.check_invariants()
    ftl = device.ftl
    outcomes = collections.Counter(entry[0] for entry in log)
    events = device.events.recent(1_000_000)
    data = {
        "outcomes": dict(sorted(outcomes.items())),
        "log_sha256": sha(log),
        "final_entry": list(log[-1]),
        "l2p_sha256": sha(ftl._l2p.tolist()),
        "p2l_sha256": sha(ftl._p2l.tolist()),
        "oob_sha256": sha(oob_image(device)),
        "journal_buffer_sha256": sha(ftl._journal.buffer),
        "journal_flushed_sha256": sha(ftl._journal.flushed),
        "seq": ftl._seq,
        "busy_until": ftl.latency.busy_until,
        "stats": dataclasses.asdict(device.snapshot()),
        "health": dataclasses.asdict(device.get_health_log()),
        "events_sha256": sha(events),
        "event_counts": dict(
            sorted(
                collections.Counter(
                    e.event_type.name for e in events
                ).items()
            )
        ),
        "fault_totals": device.faults.injection_totals(),
        "latent_totals": device.latent.injection_totals,
        "scrub": dataclasses.asdict(device.scrub_status()),
    }
    # The stream must reach every mechanism it claims to pin.
    stats = data["stats"]
    assert outcomes["cut"] == 1 and outcomes["err"] > 0
    assert stats["program_failures"] > 0 and stats["erase_failures"] > 0
    assert stats["gc_pages_migrated"] > 0
    assert stats["scrub_pages_relocated"] > 0
    assert stats["scrub_blocks_retired"] > 0
    assert stats["crc_detected_corruptions"] > 0
    assert data["latent_totals"]["silent_corruptions"] > 1
    # Through JSON once, so tuples compare as the lists the fixture holds.
    _check_golden(
        "ftl_fault_stream", json.loads(json.dumps(data)), update_golden
    )


def test_golden_energy_fault_stream(update_golden: bool) -> None:
    """Operational energy on the same stream: host and GC reads and
    programs, soft-decode retries, scrub scans and relocations, and
    erases (failed ones included), with and without an idle floor.
    Faster retention aging than the stream above makes soft decodes
    happen."""
    device = build_device(retention_rate=5e-4)
    replay(device, synthetic_commands(SEED, 4_000, use_pids=True))
    elapsed_ns = 2 * device.ftl.latency.busy_ns_total
    stats = device.stats
    assert stats.soft_decode_retries > 0 and stats.scrub_pages_scanned > 0
    assert stats.scrub_pages_relocated > 0 and stats.erase_failures > 0
    data = {
        "elapsed_ns": elapsed_ns,
        "energy_kwh": device.energy_kwh(),
        "energy_kwh_elapsed": device.energy_kwh(elapsed_ns),
    }
    _check_golden("energy_fault_stream", data, update_golden)


def test_golden_ftl_fault_sched_stream(update_golden: bool) -> None:
    """The same stream with the scheduler attached: the background work
    of GC, erases (failed ones included), scrub scans, relocations and
    retire drains lands on the busy clock and on the scheduler's
    channels, across the power cut and recovery."""
    device = build_device(sched=True)
    log = replay(device, synthetic_commands(SEED, 4_000, use_pids=True))
    device.check_invariants()
    latency, sched = device.ftl.latency, device.scheduler
    stats = device.stats
    assert collections.Counter(entry[0] for entry in log)["cut"] == 1
    assert stats.erase_failures > 0 and stats.scrub_blocks_retired > 0
    assert sched.background_segments["scrub_relocate"] > 0
    data = {
        "log_sha256": sha(log),
        "busy_until": latency.busy_until,
        "busy_ns_total": latency.busy_ns_total,
        "background_ns": dict(sched.background_ns),
        "background_segments": dict(sched.background_segments),
        "host_wait_ns": sched.host_wait_ns,
        "gc_blocked_commands": sched.gc_blocked_commands,
        "gc_backlog_ns": sched.gc_backlog_ns(),
        "histograms_sha256": {
            op: sha(sched.merged_histogram(op).to_dict())
            for op in ("read", "trim", "write")
        },
        "stats": dataclasses.asdict(device.snapshot()),
        "scrub": dataclasses.asdict(device.scrub_status()),
    }
    _check_golden(
        "ftl_fault_sched_stream", json.loads(json.dumps(data)), update_golden
    )
