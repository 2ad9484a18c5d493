"""Differential harness: the production FTL vs the per-page oracle.

DESIGN.md §10's central invariant: the FTL's one write path — whole
reclaim-unit chunks on a clean device, one-page chunks with the
injectors consulted first on a fault-equipped one — is *bit-identical*,
not statistically similar, to programming every page on its own.  The
oracle is :class:`tests.reference_ftl.ReferenceFtl`, the page loop that
used to be a product path; :func:`make_pair` builds (oracle,
production) and the two replay the same commands.  Then every
observable surface is compared: L2P/P2L arrays, OOB records (lba, seq,
stream, payload, ok, crc per physical page), the mapping journal's
volatile buffer and flushed entries, checkpoints, the in-flight tear
window, the free/closed pools, the stats snapshot and FDP statistics
log page, the FDP event stream, the busy-clock state, energy, the
health log, and every injector's tallies and RNG position.  Fault,
power-cut and corrupting-latent arms are two implementations too: the
oracle runs ``_host_write_page`` → ``_program_into``, production runs
hooked one-page extents.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.faults.latent import LatentErrorConfig
from repro.faults.model import FaultConfig
from repro.faults.plan import OP_POWER, ScriptedFault
from repro.fdp import FdpConfiguration, PlacementIdentifier, RuhDescriptor, RuhType
from repro.ssd import Geometry, SimulatedSSD
from repro.ssd.errors import DeviceFullError, MediaError, PowerLossError
from repro.ssd.recovery import payload_crc
from tests.reference_ftl import ReferenceSSD

GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=4,
    planes_per_die=2,
    dies=2,
    num_superblocks=32,
    op_fraction=0.10,
)
N_LBAS = GEOMETRY.logical_pages
MAX_EXTENT = 24  # spans > 1 superblock (16 pages) to force chunk splits


def make_pair(fdp=False, **kwargs):
    """(oracle, production): the per-page reference FTL and the real
    one, on identically configured devices.  Injector *configs* build a
    fresh, identically seeded model per device."""
    return (
        ReferenceSSD(GEOMETRY, fdp=fdp, **kwargs),
        SimulatedSSD(GEOMETRY, fdp=fdp, **kwargs),
    )


def synthetic_commands(seed, num_ops, *, use_pids=False, max_extent=MAX_EXTENT):
    """A seeded mixed stream of multi-page writes, reads, and TRIMs."""
    rng = random.Random(seed)
    commands = []
    # Cap the written span at ~80% of the logical space: several open
    # FDP write points fragment the free pool, and a near-full device
    # would legitimately throw DeviceFullError on both paths.
    span = int(N_LBAS * 0.8)
    for i in range(num_ops):
        npages = rng.randrange(1, max_extent + 1)
        lba = rng.randrange(0, span - npages)
        pid = (
            PlacementIdentifier(0, rng.randrange(0, 4))
            if use_pids and rng.random() < 0.8
            else None
        )
        roll = rng.random()
        if roll < 0.70:
            commands.append(("write", lba, npages, pid, ("tok", seed, i)))
        elif roll < 0.85:
            commands.append(("read", lba, npages, None, None))
        else:
            commands.append(("trim", lba, npages, None, None))
    return commands


def zipf_commands(seed, num_ops, *, alpha=1.2):
    """Zipf-skewed single/multi-page writes — the cache-like pattern."""
    rng = random.Random(seed)
    # Precompute a Zipf-ish key popularity table over LBA starts.
    starts = N_LBAS // 8
    weights = [1.0 / (rank + 1) ** alpha for rank in range(starts)]
    commands = []
    for i in range(num_ops):
        start = rng.choices(range(starts), weights)[0] * 8
        npages = rng.randrange(1, 9)
        if rng.random() < 0.8:
            commands.append(("write", start, npages, None, ("z", seed, i)))
        else:
            commands.append(("read", start, npages, None, None))
    return commands


def replay_steps(device, commands, *, recover_on_cut=True):
    """Apply commands one at a time, yielding each command's log entries
    (its outcome, exceptions included) once it is done — for tests that
    look at the device between two commands."""
    now = 0
    for op, lba, npages, pid, payload in commands:
        entries = []
        try:
            if op == "write":
                now = device.write(lba, npages, pid, now, payload)
                entries.append(("w", now))
            elif op == "read":
                mapped, done = device.read(lba, npages, now)
                now = done
                entries.append(("r", mapped, done))
            else:
                entries.append(("t", device.deallocate(lba, npages)))
        except PowerLossError as exc:
            entries.append(("cut", exc.pages_durable))
            if recover_on_cut:
                report = device.recover()
                entries.append(("recovered", report.mappings_recovered,
                                report.journal_entries_replayed))
        except MediaError as exc:
            entries.append(("err", type(exc).__name__))
        yield entries
        if device.powered_off:
            return


def replay(device, commands, *, recover_on_cut=True):
    """Apply commands, logging every outcome (including exceptions)."""
    return [
        entry
        for entries in replay_steps(
            device, commands, recover_on_cut=recover_on_cut
        )
        for entry in entries
    ]


def oob_image(device):
    return [
        None if rec is None
        else (rec.lba, rec.seq, rec.stream, rec.payload, rec.ok, rec.crc)
        for rec in device.ftl._oob
    ]


def injector_state(device):
    """Tallies, op counters and RNG positions of the attached injectors."""
    faults, latent = device.faults, device.latent
    state = {}
    if faults is not None:
        state["faults"] = (
            faults.injection_totals(),
            faults.read_ops,
            faults.program_ops,
            faults.erase_ops,
            faults.host_program_ops,
            faults.plan.snapshot(),
            faults._read_rng.getstate(),
            faults._program_rng.getstate(),
            faults._erase_rng.getstate(),
            faults._spike_rng.getstate(),
        )
    if latent is not None:
        state["latent"] = (
            latent.injection_totals,
            latent.plan.snapshot(),
            latent._rng.getstate(),
            latent._disturb,
        )
    return state


def assert_identical(scalar, batched):
    """Every observable surface of the two devices must match exactly."""
    assert scalar.ftl._l2p == batched.ftl._l2p
    assert scalar.ftl._p2l == batched.ftl._p2l
    assert scalar.snapshot() == batched.snapshot()
    assert scalar.get_log_page() == batched.get_log_page()
    assert scalar.events.recent() == batched.events.recent()
    assert scalar.ftl._journal.buffer == batched.ftl._journal.buffer
    assert scalar.ftl._journal.flushed == batched.ftl._journal.flushed
    assert oob_image(scalar) == oob_image(batched)
    assert scalar.ftl.latency.busy_until == batched.ftl.latency.busy_until
    assert (
        scalar.ftl.latency.busy_ns_total == batched.ftl.latency.busy_ns_total
    )
    assert scalar.energy_kwh() == batched.energy_kwh()
    assert scalar.get_health_log() == batched.get_health_log()
    assert [
        (sb.state, sb.write_ptr, sb.valid_pages, sb.erase_count)
        for sb in scalar.ftl.superblocks
    ] == [
        (sb.state, sb.write_ptr, sb.valid_pages, sb.erase_count)
        for sb in batched.ftl.superblocks
    ]
    # What a later command, power cut or recovery would act on: the
    # injectors, the victim RNG, the tear window, the pools.
    assert injector_state(scalar) == injector_state(batched)
    assert scalar.scrub_status() == batched.scrub_status()
    a, b = scalar.ftl, batched.ftl
    assert a._seq == b._seq
    assert a._victim_rng.getstate() == b._victim_rng.getstate()
    assert [(w.lba, w.npages, w.ppns, w.ack_ns) for w in a._inflight] == [
        (w.lba, w.npages, w.ppns, w.ack_ns) for w in b._inflight
    ]
    assert [(cp.seq, cp.l2p) for cp in a._checkpoints] == [
        (cp.seq, cp.l2p) for cp in b._checkpoints
    ]
    assert a._pages_since_checkpoint == b._pages_since_checkpoint
    assert a.stream_host_pages == b.stream_host_pages
    assert a._free == b._free
    assert a._closed == b._closed
    assert a._zero_closed == b._zero_closed
    assert {k: sb.index for k, sb in a._write_points.items()} == {
        k: sb.index for k, sb in b._write_points.items()
    }
    scalar.check_invariants()
    batched.check_invariants()


@pytest.mark.parametrize("fdp", [False, True])
@pytest.mark.parametrize("seed", [7, 2026])
def test_synthetic_stream_bit_identical(fdp, seed):
    commands = synthetic_commands(seed, 3000, use_pids=fdp)
    scalar, batched = make_pair(fdp=fdp)
    assert replay(scalar, commands) == replay(batched, commands)
    assert_identical(scalar, batched)


@pytest.mark.parametrize("fdp", [False, True])
def test_zipf_stream_bit_identical(fdp):
    commands = zipf_commands(99, 3000)
    scalar, batched = make_pair(fdp=fdp)
    assert replay(scalar, commands) == replay(batched, commands)
    assert_identical(scalar, batched)


def test_fault_plan_identical_exception_order():
    """Probabilistic media errors + scripted retirements: the oracle
    retries inside ``_program_into``, production inside ``_writable``
    ahead of one-page extents, and they must agree on every draw,
    every consumed page and which commands raise."""
    faults = FaultConfig(
        seed=0xBEEF,
        read_uecc_rate=2e-3,
        program_fail_rate=2e-3,
        plan=(
            ScriptedFault(op="erase", superblock=3, cycle=1),
            ScriptedFault(op="erase", superblock=9, cycle=2),
        ),
    )
    commands = synthetic_commands(11, 4000)
    scalar, batched = make_pair(faults=faults)
    log_s = replay(scalar, commands)
    log_b = replay(batched, commands)
    assert log_s == log_b
    assert any(entry[0] == "err" for entry in log_s)
    assert_identical(scalar, batched)


@pytest.mark.parametrize("cut_index", [97, 1500])
def test_scripted_power_cut_mid_command(cut_index):
    """An OP_POWER plan entry tears one multi-page write mid-command at
    the same host page-program index on both implementations; recovery
    then rebuilds the same state and the stream continues identically."""
    faults = FaultConfig(
        plan=(ScriptedFault(op=OP_POWER, op_index=cut_index),)
    )
    commands = synthetic_commands(5, 2500)
    scalar, batched = make_pair(faults=faults)
    log_s = replay(scalar, commands)
    log_b = replay(batched, commands)
    assert log_s == log_b
    assert any(entry[0] == "cut" for entry in log_s)
    assert_identical(scalar, batched)


def test_external_power_cut_and_warm_restart():
    """power_cut() between commands (fault-free devices, so production
    programmed whole chunks before the cut), then recover and keep
    writing."""
    first = synthetic_commands(21, 1500)
    second = synthetic_commands(22, 1500)
    scalar, batched = make_pair(fdp=True)
    assert replay(scalar, first) == replay(batched, first)
    assert scalar.power_cut().torn_writes == batched.power_cut().torn_writes
    scalar.recover()
    batched.recover()
    assert_identical(scalar, batched)
    assert replay(scalar, second) == replay(batched, second)
    assert_identical(scalar, batched)


@pytest.mark.parametrize("fdp", [False, True])
def test_quiescent_latent_model_bit_identical(fdp):
    """A quiescent latent-error model (zero rates, empty plan) stamps
    CRCs and tracks disturb counters but never perturbs an outcome, so
    production keeps whole-superblock chunks and still matches the
    oracle — including the per-page CRCs in the OOB image and the
    model's own ``host_program_ops`` tally."""
    latent = LatentErrorConfig(
        read_disturb_per_read=0.0, retention_rate=0.0
    )
    commands = synthetic_commands(31, 3000, use_pids=fdp)
    scalar, batched = make_pair(fdp=fdp, latent=latent)
    assert not batched.ftl._page_hooks
    assert replay(scalar, commands) == replay(batched, commands)
    assert_identical(scalar, batched)
    # CRC protection is actually on: every mapped OOB record is stamped.
    assert any(
        rec is not None and rec.crc is not None
        for rec in batched.ftl._oob
    )


# --------------------------------------------------------------------
# scheduler-on vs scheduler-off differential arm
# --------------------------------------------------------------------
#
# The multi-queue scheduler is documented as a pure *timing overlay*
# (DESIGN.md §12): state mutations execute synchronously at submit, so
# a device driven through submit_async/poll must be bit-identical to a
# device driven through the sync calls for every non-timing surface —
# L2P/P2L, OOB, journal, stats/DLWA, events, energy, health, and even
# the busy-clock totals (both arms see the same now_ns schedule; the
# scheduler keeps its own channel horizons on the side).  Only
# IoCompletion latency/complete times have no sync counterpart.

ARRIVAL_NS = 100_000  # fixed arrival schedule shared by both arms


def replay_sync_clocked(device, commands, *, recover_on_cut=True):
    """Sync replay on a fixed arrival clock (comparable across arms)."""
    log = []
    for i, (op, lba, npages, pid, payload) in enumerate(commands):
        now = i * ARRIVAL_NS
        try:
            if op == "write":
                log.append(("w", device.write(lba, npages, pid, now, payload)))
            elif op == "read":
                mapped, done = device.read(lba, npages, now)
                log.append(("r", mapped, done))
            else:
                log.append(("t", device.deallocate(lba, npages)))
        except PowerLossError as exc:
            log.append(("cut", exc.pages_durable))
            if not recover_on_cut:
                break
            report = device.recover()
            log.append(("recovered", report.mappings_recovered,
                        report.journal_entries_replayed))
        except MediaError as exc:
            log.append(("err", type(exc).__name__))
    return log


def replay_async(device, commands, *, poll_every=7, recover_on_cut=True):
    """Drive the same stream through submit_async/poll on one queue.

    Polling is deliberately batched (every ``poll_every`` submissions,
    well under the queue depth) so completions are genuinely deferred;
    the state-bearing log is reassembled in ticket (= submission)
    order, which is the order the sync arm observed.
    """
    entries = {}
    tickets = []
    pending = 0

    def drain():
        nonlocal pending
        for comp in device.poll("diff"):
            pending -= 1
            if not comp.ok:
                entries[comp.ticket] = ("err", type(comp.error).__name__)
            elif comp.op == "write":
                entries[comp.ticket] = ("w", comp.result)
            elif comp.op == "read":
                entries[comp.ticket] = ("r", comp.result[0], comp.result[1])
            else:
                entries[comp.ticket] = ("t", comp.result)

    extra = []
    for i, (op, lba, npages, pid, payload) in enumerate(commands):
        now = i * ARRIVAL_NS
        try:
            tickets.append(
                device.submit_async(
                    op, lba, npages, pid, now, queue="diff", payload=payload
                )
            )
            pending += 1
        except PowerLossError as exc:
            extra.append((len(tickets), ("cut", exc.pages_durable)))
            if not recover_on_cut:
                break
            report = device.recover()
            extra.append((len(tickets), ("recovered",
                                         report.mappings_recovered,
                                         report.journal_entries_replayed)))
        if pending >= poll_every:
            drain()
    drain()
    assert pending == 0
    log = [entries[t] for t in tickets]
    # Splice power-cut markers back at their submission positions.
    for position, entry in reversed(extra):
        log.insert(position, entry)
    return log


def assert_identical_nontiming(sync_dev, async_dev):
    """assert_identical, including the busy clock: the overlay never
    touches it (both arms replayed the same now_ns schedule)."""
    assert_identical(sync_dev, async_dev)


@pytest.mark.parametrize("fdp", [False, True])
def test_scheduler_overlay_bit_identical_synthetic(fdp):
    commands = synthetic_commands(13, 3000, use_pids=fdp)
    plain = SimulatedSSD(GEOMETRY, fdp=fdp)
    sched = SimulatedSSD(GEOMETRY, fdp=fdp, sched=True)
    log_sync = replay_sync_clocked(plain, commands)
    log_async = replay_async(sched, commands)
    assert log_sync == log_async
    assert_identical_nontiming(plain, sched)
    # The overlay actually measured something.
    assert sched.scheduler.host_commands == len(commands)
    assert sched.scheduler.merged_histogram("read").count > 0


def test_scheduler_overlay_bit_identical_zipf():
    commands = zipf_commands(44, 3000)
    plain = SimulatedSSD(GEOMETRY)
    sched = SimulatedSSD(GEOMETRY, sched=True)
    assert replay_sync_clocked(plain, commands) == replay_async(
        sched, commands
    )
    assert_identical_nontiming(plain, sched)


@pytest.mark.parametrize("faulty", [False, True])
def test_sync_commands_time_like_qd1_submit_and_poll(faulty):
    """A sync command is timed where it is issued, never entering a
    queue; at queue depth 1 that must equal submit_async + poll of the
    same command — completion times, histograms, waits and tickets —
    failed commands included, and leave the state an
    unscheduled device ends in."""
    def device(**kwargs):
        faults = FaultConfig(seed=7, read_uecc_rate=3e-3, program_fail_rate=3e-3)
        return SimulatedSSD(GEOMETRY, faults=faults if faulty else None, **kwargs)

    commands = synthetic_commands(23, 3000)
    plain, sync, qd1 = device(), device(sched=True), device(sched=True)
    sync_log, qd1_log = [], []
    for i, (op, lba, npages, pid, payload) in enumerate(commands):
        now = i * ARRIVAL_NS
        try:
            if op == "write":
                done = sync.write(lba, npages, pid, now, payload, queue="q")
            elif op == "read":
                done = sync.read(lba, npages, now, queue="q")
            else:
                done = sync.deallocate(lba, npages, now, queue="q")
            sync_log.append(done)
        except MediaError as exc:
            sync_log.append(type(exc).__name__)
        ticket = qd1.submit_async(op, lba, npages, pid, now, queue="q", payload=payload)
        (comp,) = qd1.poll("q")
        assert comp.ticket == ticket
        if not comp.ok:
            qd1_log.append(type(comp.error).__name__)
        elif op == "write":
            qd1_log.append(comp.complete_ns)
        elif op == "read":
            qd1_log.append((comp.result[0], comp.complete_ns))
        else:
            qd1_log.append(comp.result)
    assert sync_log == qd1_log
    assert faulty == any(isinstance(entry, str) for entry in sync_log)
    a, b = sync.scheduler, qd1.scheduler
    assert a.host_commands == b.host_commands == len(commands)
    assert (a.host_wait_ns, a.gc_blocked_commands) == (b.host_wait_ns, b.gc_blocked_commands)
    assert a.gc_blocked_commands > 0
    assert a.histograms()["q"].keys() == b.histograms()["q"].keys()
    for op, hist in a.histograms()["q"].items():
        assert hist.to_dict() == b.histograms()["q"][op].to_dict()
    replay_sync_clocked(plain, commands)
    assert_identical_nontiming(plain, sync)


def test_scheduler_overlay_identical_under_fault_plan():
    """Media errors surface as failed completions on the async arm but
    as exceptions on the sync arm — same commands, same error types,
    same state."""
    def faults():
        return FaultConfig(
            seed=0xBEEF,
            read_uecc_rate=2e-3,
            program_fail_rate=2e-3,
            plan=(ScriptedFault(op="erase", superblock=3, cycle=1),),
        )

    commands = synthetic_commands(17, 4000)
    plain = SimulatedSSD(GEOMETRY, faults=faults())
    sched = SimulatedSSD(GEOMETRY, faults=faults(), sched=True)
    log_sync = replay_sync_clocked(plain, commands)
    log_async = replay_async(sched, commands)
    assert log_sync == log_async
    assert any(entry[0] == "err" for entry in log_sync)
    assert_identical_nontiming(plain, sched)


@pytest.mark.parametrize("cut_index", [97, 1500])
def test_scheduler_overlay_identical_across_power_cut(cut_index):
    """An OP_POWER cut tears the same write on both arms; recovery
    rebuilds the same state and the replay continues identically (the
    async arm's in-flight window re-dispatches after recover)."""
    def faults():
        return FaultConfig(plan=(ScriptedFault(op=OP_POWER,
                                               op_index=cut_index),))

    commands = synthetic_commands(5, 2500)
    plain = SimulatedSSD(GEOMETRY, faults=faults())
    sched = SimulatedSSD(GEOMETRY, faults=faults(), sched=True)
    log_sync = replay_sync_clocked(plain, commands)
    log_async = replay_async(sched, commands)
    assert log_sync == log_async
    assert any(entry[0] == "cut" for entry in log_sync)
    assert_identical_nontiming(plain, sched)


def test_scheduler_overlay_identical_quiescent_power_cut():
    """External power_cut() between commands, then warm restart; the
    async arm polls everything down before the cut (quiescent CQ)."""
    first = synthetic_commands(21, 1500)
    second = synthetic_commands(22, 1500)
    plain = SimulatedSSD(GEOMETRY, fdp=True)
    sched = SimulatedSSD(GEOMETRY, fdp=True, sched=True)
    assert replay_sync_clocked(plain, first) == replay_async(sched, first)
    assert plain.power_cut().torn_writes == sched.power_cut().torn_writes
    plain.recover()
    sched.recover()
    assert_identical_nontiming(plain, sched)
    assert replay_sync_clocked(plain, second) == replay_async(sched, second)
    assert_identical_nontiming(plain, sched)


# --------------------------------------------------------------------
# GC arm: run-based migration vs page-at-a-time migration
# --------------------------------------------------------------------
#
# Production migrates a GC victim's live pages as whole runs
# (Ftl._migrate_live -> _program_moved); the oracle moves them one
# _program_into at a time.  Same commands, so every surface must match
# — and the streams below make GC do most of the NAND writes, with a
# journal flush interval that cuts through the middle of the runs.


def gc_pair(**kwargs):
    """(run migration, per-page migration): production and the oracle
    over identical devices."""
    kwargs.setdefault("journal_flush_interval", 7)
    kwargs.setdefault("checkpoint_interval_pages", 96)
    run = SimulatedSSD(GEOMETRY, **kwargs)
    page = ReferenceSSD(GEOMETRY, **kwargs)
    for device in (run, page):
        if device.scheduler is not None:
            device.background_log = log = []
            note = device.scheduler.note_background
            device.scheduler.note_background = (
                lambda *args, _log=log, _note=note: (_log.append(args), _note(*args))
            )
    return run, page


def gc_heavy_commands(seed, num_ops, *, use_pids=False):
    """Cache-shaped traffic at ~95% of the logical space: one-page
    random rewrites (SOC buckets) against multi-page sequential regions
    (LOC), so victims are mostly valid and hold runs of both kinds."""
    rng = random.Random(seed)
    soc_pages = N_LBAS // 4
    loc_base, region = soc_pages, 8
    regions = (int(N_LBAS * 0.95) - loc_base) // region
    commands = []
    cursor = 0
    for i in range(num_ops):
        roll = rng.random()
        if roll < 0.70:
            pid = PlacementIdentifier(0, 1) if use_pids else None
            commands.append(
                ("write", rng.randrange(soc_pages), 1, pid, ("soc", seed, i))
            )
        elif roll < 0.90:
            pid = PlacementIdentifier(0, 2) if use_pids else None
            lba = loc_base + (cursor % regions) * region
            cursor += 1
            commands.append(("write", lba, region, pid, ("loc", seed, i)))
        elif roll < 0.97:
            commands.append(("read", rng.randrange(N_LBAS - 4), 4, None, None))
        else:
            commands.append(("trim", rng.randrange(N_LBAS - 4), 4, None, None))
    return commands


def assert_gc_identical(run, page, *, min_gc_share=0.3):
    assert_identical(run, page)
    # assert_identical compared the materialized buffer and durable
    # region, i.e. where the last flush fell; the run encoding itself
    # may differ (a host extent journals per chunk, a page loop merges
    # across superblocks).
    assert run.ftl._journal._buf_len == page.ftl._journal._buf_len
    assert getattr(run, "background_log", None) == getattr(
        page, "background_log", None
    )
    stats = run.ftl.stats
    assert stats.gc_pages_migrated >= min_gc_share * stats.nand_pages_written


def persistent_config():
    return FdpConfiguration(
        ruhs=tuple(
            RuhDescriptor(i, RuhType.PERSISTENTLY_ISOLATED) for i in range(4)
        ),
        num_reclaim_groups=1,
        reclaim_unit_bytes=GEOMETRY.superblock_bytes,
    )


GC_ARMS = {
    "nonfdp": dict(),
    "nonfdp-sampled-victims": dict(gc_victim_sample=4),
    "fdp-initially-isolated": dict(fdp=True),
    "fdp-persistently-isolated": dict(fdp=persistent_config),
    "wear-leveling": dict(wear_level_threshold=2),
    "scheduler": dict(sched=True),
    "default-journal-interval": dict(journal_flush_interval=256),
}


@pytest.mark.parametrize("arm", sorted(GC_ARMS))
@pytest.mark.parametrize("seed", [3, 2027])
def test_gc_run_migration_bit_identical(arm, seed):
    kwargs = {
        k: v() if callable(v) else v for k, v in GC_ARMS[arm].items()
    }
    use_pids = bool(kwargs.get("fdp"))
    commands = gc_heavy_commands(seed, 3000, use_pids=use_pids)
    run, page = gc_pair(**kwargs)
    assert replay(run, commands) == replay(page, commands)
    assert_gc_identical(run, page)
    if kwargs.get("sched"):
        assert any(args[0] == "gc_migrate" for args in run.background_log)


@pytest.mark.parametrize("fdp", [False, True])
def test_gc_run_migration_carries_crc(fdp):
    """Quiescent latent model: CRCs are stamped on host writes and must
    travel through GC unchanged on both paths."""
    latent = LatentErrorConfig(read_disturb_per_read=0.0, retention_rate=0.0)
    commands = gc_heavy_commands(41, 3000, use_pids=fdp)
    run, page = gc_pair(fdp=fdp, latent=latent)
    assert replay(run, commands) == replay(page, commands)
    assert_gc_identical(run, page)
    gc_copies = [
        rec for rec in run.ftl._oob
        if rec is not None and rec.stream[0] == "gc" and rec.ok
    ]
    assert gc_copies
    assert all(rec.crc == payload_crc(rec.payload) for rec in gc_copies)


@pytest.mark.parametrize("fdp", [False, True])
def test_gc_power_cut_right_after_a_burst(fdp):
    """Cut power with the last GC burst's journal entries still in the
    volatile buffer; both paths must lose and recover the same things."""
    commands = gc_heavy_commands(57, 2500, use_pids=fdp)
    run, page = gc_pair(fdp=fdp)
    assert replay(run, commands) == replay(page, commands)
    # Stop on a command that made GC run: the burst is the newest thing
    # in the journal.
    extra = gc_heavy_commands(58, 400, use_pids=fdp)
    for command in extra:
        before = run.stats.gc_victim_selections
        assert replay(run, [command]) == replay(page, [command])
        if run.stats.gc_victim_selections > before and run.ftl._journal._buf_len:
            break
    else:
        pytest.fail("no GC burst in the extra commands")
    assert_gc_identical(run, page)
    assert run.power_cut(0) == page.power_cut(0)
    report_run, report_page = run.recover(), page.recover()
    assert dataclasses.asdict(report_run) == dataclasses.asdict(report_page)
    assert_gc_identical(run, page)
    more = gc_heavy_commands(59, 1500, use_pids=fdp)
    assert replay(run, more) == replay(page, more)
    assert_gc_identical(run, page)


def half_migrated_victims(ftl):
    """(superblock, pages moved out, pages still live) of every CLOSED
    block holding stale sources of GC copies.  A finished victim is
    erased, so only one that GC abandoned part-way shows up."""
    pps = ftl._pps
    out = []
    for idx in ftl._closed:
        moved = 0
        for ppn in range(idx * pps, (idx + 1) * pps):
            lba = ftl._p2l[ppn]
            copy = ftl._l2p[lba] if lba >= 0 else -1
            if (
                copy >= 0
                and copy != ppn
                and ftl._oob[copy].stream[0] == "gc"
                and ftl._oob[copy].payload is ftl._oob[ppn].payload
            ):
                moved += 1
        if moved:
            out.append((idx, moved, ftl.superblocks[idx].valid_pages))
    return out


@pytest.mark.parametrize("seed", [3, 8])
def test_device_full_mid_gc_leaves_consistent_state(seed, sched=False):
    """The free pool runs dry while a victim is half migrated: what has
    moved is mapped at its new place, the rest is still live in the
    victim, and both implementations stop in the same state."""
    run, page = gc_pair(fdp=True, gc_reserve_superblocks=2, sched=sched)
    outcomes = []
    for device in (run, page):
        rng = random.Random(seed)
        now = 0
        with pytest.raises(DeviceFullError, match="stream \\('gc'"):
            # Fill the whole logical space through five write points,
            # then keep overwriting: every victim is nearly all valid
            # and GC has no spare superblock to migrate into.
            for i in range(6 * N_LBAS):
                lba = i if i < N_LBAS else rng.randrange(N_LBAS)
                pid = PlacementIdentifier(0, rng.randrange(5))
                now = device.write(lba, 1, pid, now, ("full", i))
        outcomes.append((i, now, lba))
        device.check_invariants()
    assert outcomes[0] == outcomes[1]
    assert_gc_identical(run, page, min_gc_share=0.0)
    victims = half_migrated_victims(run.ftl)
    assert victims == half_migrated_victims(page.ftl)
    assert len(victims) == 1
    _, moved, still_live = victims[0]
    assert moved > 0 and still_live > 0
    # Everything but the LBA of the command that failed (unmapped before
    # its allocation, as in the page loop) still reads back, the
    # copies GC had already made included.
    failed_lba = outcomes[0][2]
    for device in (run, page):
        payloads = device.read_payload(0, N_LBAS)
        assert [n for n, p in enumerate(payloads) if p is None] == [failed_lba]


def test_device_full_mid_gc_with_the_scheduler_attached():
    test_device_full_mid_gc_leaves_consistent_state(3, sched=True)


@pytest.mark.slow
def test_differential_soak():
    """Longer mixed soak at higher pressure (more GC wraps)."""
    for seed in range(3):
        commands = synthetic_commands(1000 + seed, 20_000, use_pids=True)
        scalar, batched = make_pair(fdp=True)
        assert replay(scalar, commands) == replay(batched, commands)
        assert_identical(scalar, batched)
