"""Differential arms for the page hooks inside the FTL's write path.

A fault-equipped device programs host data as one-page extents with the
injectors consulted before each page, and retries failed programs in
``Ftl._writable``; the oracle (``tests/reference_ftl.py``) does the same
work in its page loop.  These arms aim scripted faults at the places a
one-page chunk has to get exactly right — the last page of a superblock
in the middle of a long extent, a run of failures that ends the
command, a power cut on the first and the last page, a corruption
mid-extent, a failed program while GC or the scrubber is the one
programming — and require oracle ≡ production under
:func:`tests.test_differential_batch.assert_identical` every time,
with and without FDP and with the scheduler attached.

Scripted plans count operations (``op_index``), so each arm first runs
a *scout*: the same stream on a device whose fault model never fires,
with a spy on ``fail_program`` noting where every program came from.
A fault scripted at the index the scout picked changes nothing before
it, so it lands where the scout saw it.
"""

from __future__ import annotations

import collections
import random
import sys

import pytest

from repro.faults.latent import _SILENT_SALT, LatentErrorConfig
from repro.faults.model import FaultConfig
from repro.faults.plan import OP_POWER, OP_PROGRAM, OP_SILENT, ScriptedFault
from repro.fdp import PlacementIdentifier
from repro.ssd import SimulatedSSD
from repro.ssd.errors import DeviceFullError, PowerLossError, ProgramFailError
from repro.ssd.ftl import MAX_PROGRAM_ATTEMPTS
from repro.ssd.recovery import payload_crc
from repro.ssd.scrub import ScrubConfig
from tests.test_differential_batch import (
    GEOMETRY,
    N_LBAS,
    assert_identical,
    gc_heavy_commands,
    make_pair,
    oob_image,
    replay,
    replay_steps,
    synthetic_commands,
)

PPS = GEOMETRY.pages_per_superblock

ARMS = {
    "nonfdp": dict(),
    "fdp": dict(fdp=True),
    "fdp-sched": dict(fdp=True, sched=True),
}
arms = pytest.mark.parametrize("arm", sorted(ARMS))


def pid_for(arm):
    return PlacementIdentifier(0, 2) if ARMS[arm].get("fdp") else None


def long_extents(seed, num_ops, *, use_pids):
    """Writes of 17..40 pages (every one crosses a superblock boundary)
    over 70% of the logical space, so GC is busy once it has wrapped."""
    rng = random.Random(seed)
    span = int(N_LBAS * 0.7)
    commands = []
    for i in range(num_ops):
        npages = rng.randrange(PPS + 1, 41)
        pid = PlacementIdentifier(0, rng.randrange(3)) if use_pids else None
        commands.append(
            ("write", rng.randrange(span - npages), npages, pid, ("x", seed, i))
        )
    return commands


Site = collections.namedtuple(
    "Site", "op ppn callers command page npages free gc_reserve"
)


def scout(device, commands):
    """Every program the fault model is asked about while ``commands``
    replay on ``device`` (whose model must never fire): its program-op
    index, the functions it was called under, and where in which host
    command it fell."""
    ftl, faults = device.ftl, device.faults
    asked = faults.fail_program
    sites = []
    current = [0, 0, 0]  # command index, its npages, host pages before it

    def spy(ppn):
        callers = set()
        frame = sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        assert not asked(ppn)
        sites.append(
            Site(
                faults.program_ops,
                ppn,
                callers,
                current[0],
                ftl.stats.host_pages_written - current[2],
                current[1],
                len(ftl._free),
                ftl.gc_reserve,
            )
        )
        return False

    faults.fail_program = spy
    steps = replay_steps(device, commands)
    for index, command in enumerate(commands):
        current[:] = index, command[2], ftl.stats.host_pages_written
        next(steps)
    return sites


def is_host(site):
    return not site.callers & {"_migrate_live", "_relocate_page"}


# --------------------------------------------------------------------
# program failures on the host path
# --------------------------------------------------------------------


@arms
def test_program_failure_on_last_page_mid_extent(arm):
    """The failed page is the write point's last, so the write point
    rolls in the middle of the command and the allocation that follows
    collects garbage — after the page being retried gave up its old
    mapping, so GC must not migrate the copy it supersedes."""
    kwargs = ARMS[arm]
    commands = long_extents(18, 120, use_pids="fdp" in kwargs)
    sites = scout(
        SimulatedSSD(GEOMETRY, faults=FaultConfig(), **kwargs), commands
    )
    site = next(
        s
        for s in sites
        if is_host(s)
        and s.ppn % PPS == PPS - 1
        and 0 < s.page < s.npages - 1
        and s.free < s.gc_reserve  # the next allocation will collect
    )
    faults = FaultConfig(
        plan=(ScriptedFault(op=OP_PROGRAM, op_index=site.op),)
    )
    oracle, production = make_pair(faults=faults, **kwargs)
    outcomes = []
    for device in (oracle, production):
        steps = replay_steps(device, commands)
        log = [next(steps) for _ in range(site.command)]
        victims = device.stats.gc_victim_selections
        assert device.stats.program_failures == 0
        log.append(next(steps))  # the command the failure lands in
        assert device.stats.program_failures == 1
        assert device.stats.gc_victim_selections > victims
        bad = device.ftl._oob[site.ppn]
        assert (bad.lba, bad.ok) == (-1, False)
        # The retried page opens the fresh superblock, mid-command.
        lba = commands[site.command][1] + site.page
        assert device.ftl._l2p[lba] % PPS == 0
        assert device.ftl._l2p[lba - 1] == site.ppn - 1
        log.extend(steps)
        outcomes.append(log)
    assert outcomes[0] == outcomes[1]
    assert_identical(oracle, production)


@arms
def test_max_attempts_write_fault_keeps_leading_pages(arm):
    """``MAX_PROGRAM_ATTEMPTS`` consecutive failures end the command
    with ProgramFailError: the pages before the failing one stay
    mapped, the failing LBA has already given up its old copy, the bad
    pages are spent (rolling into a fresh superblock on the way), and
    no latency or in-flight entry is charged for the dead command."""
    first_bad = 10  # program ops 1..7 and 8..9 succeed
    plan = tuple(
        ScriptedFault(op=OP_PROGRAM, op_index=first_bad + k)
        for k in range(MAX_PROGRAM_ATTEMPTS)
    )
    pid = pid_for(arm)
    oracle, production = make_pair(faults=FaultConfig(plan=plan), **ARMS[arm])
    for device in (oracle, production):
        now = device.write(0, 7, pid, 0, "old")
        busy = device.ftl.latency.busy_until
        with pytest.raises(ProgramFailError) as exc:
            device.write(3, 4, pid, now, "new")
        assert (exc.value.lba, exc.value.attempts) == (5, MAX_PROGRAM_ATTEMPTS)
        assert device.read_payload(0, 7) == (
            ["old"] * 3 + ["new"] * 2 + [None] + ["old"]
        )
        assert device.ftl.latency.busy_until == busy
        assert [w.lba for w in device.ftl._inflight] == [0]
        assert device.stats.program_failures == MAX_PROGRAM_ATTEMPTS
        assert device.stats.host_pages_written == 9
        # 9 good pages + 8 bad ones > 16: the retries rolled into a
        # fresh superblock on the way.
        assert len(device.ftl._closed) == 1
        device.write(3, 4, pid, now, "again")  # the device carries on
    assert_identical(oracle, production)


# --------------------------------------------------------------------
# power cuts and silent corruption, scripted at a host page
# --------------------------------------------------------------------


@arms
@pytest.mark.parametrize("where", ["first", "last"])
def test_power_cut_on_first_and_last_page_of_an_extent(arm, where):
    head, extent = 5, 40  # the extent spans three superblocks
    cut = head + (1 if where == "first" else extent)
    durable = cut - head - 1
    faults = FaultConfig(plan=(ScriptedFault(op=OP_POWER, op_index=cut),))
    pid = pid_for(arm)
    oracle, production = make_pair(faults=faults, **ARMS[arm])
    for device in (oracle, production):
        now = device.write(100, head, pid, 0, "head")
        with pytest.raises(PowerLossError) as exc:
            device.write(10, extent, pid, now, "long")
        err = exc.value
        assert (err.lba, err.npages, err.pages_durable) == (10, extent, durable)
        assert device.powered_off
        # Exactly one page was mid-program: consumed, fails its check.
        torn = [rec for rec in oob_image(device) if rec and not rec[4]]
        assert len(torn) == 1 and torn[0][0] == -1
        assert device.stats.torn_pages_discarded == 1
    assert_identical(oracle, production)
    for device in (oracle, production):
        device.recover()
        assert device.read_payload(10, extent) == (
            ["long"] * durable + [None] * (extent - durable)
        )
        assert device.read_payload(100, head) == ["head"] * head
    assert_identical(oracle, production)
    more = synthetic_commands(61, 200, use_pids="fdp" in ARMS[arm])
    assert replay(oracle, more) == replay(production, more)
    assert_identical(oracle, production)


@arms
def test_scripted_corruption_mid_extent_on_top_of_a_rate(arm):
    """One ``corrupt_program`` consultation — so one RNG draw — per host
    page, in page order; the scripted page stores mutated content under
    the CRC of what the host sent, and its neighbours are untouched."""
    seed, rate = 7, 0.01
    commands = synthetic_commands(23, 600, use_pids="fdp" in ARMS[arm])
    # Aim at the second page of a write in the middle of the stream.
    pages = 0
    for target, (op, lba, npages, _, payload) in enumerate(commands):
        if op != "write":
            continue
        if target > 300 and npages >= 3:
            break
        pages += npages
    commands = commands[: target + 200]
    latent = LatentErrorConfig(
        seed=seed,
        silent_corruption_rate=rate,
        plan=(ScriptedFault(op=OP_SILENT, op_index=pages + 2),),
    )
    oracle, production = make_pair(latent=latent, **ARMS[arm])
    assert production.ftl._page_hooks
    outcomes = []
    for device in (oracle, production):
        steps = replay_steps(device, commands)
        log = [next(steps) for _ in range(target + 1)]
        assert device.latent.host_program_ops == pages + npages
        assert device.read_payload(lba, 3) == [
            payload, ("~bitrot", payload), payload
        ]
        assert device.ftl._oob[device.ftl._l2p[lba + 1]].crc == payload_crc(payload)
        log.extend(steps)
        outcomes.append(log)
        assert device.latent.host_program_ops == device.stats.host_pages_written
        rng = random.Random((seed << 4) ^ _SILENT_SALT)
        for _ in range(device.latent.host_program_ops):
            rng.random()
        assert rng.getstate() == device.latent._rng.getstate()
        assert device.latent.corruptions_injected > 1  # the rate fired too
    assert outcomes[0] == outcomes[1]
    assert_identical(oracle, production)


# --------------------------------------------------------------------
# failures while GC or the scrubber is the one programming
# --------------------------------------------------------------------


def aging_device_kwargs(plan=()):
    """Retention ages pages past the scrubber's refresh threshold and a
    silent-corruption rate feeds it blocks to retire."""
    return dict(
        fdp=True,
        faults=FaultConfig(plan=plan),
        latent=LatentErrorConfig(
            seed=0x18F7,
            retention_rate=2e-4,
            wear_factor=0.05,
            silent_corruption_rate=2e-3,
        ),
        scrub=ScrubConfig(
            interval_ns=400_000, refresh_threshold=0.6, retire_after_failures=2
        ),
        journal_flush_interval=7,
        checkpoint_interval_pages=96,
    )


BACKGROUND = {
    "gc-migration": lambda s: "_migrate_live" in s.callers,
    "scrub-relocation": lambda s: (
        "_relocate_page" in s.callers and "_retire_block" not in s.callers
    ),
    "retire-drain": lambda s: "_retire_block" in s.callers,
}


@pytest.fixture(scope="module")
def background_sites():
    commands = synthetic_commands(0x18F7, 1000, use_pids=True)
    sites = scout(SimulatedSSD(GEOMETRY, **aging_device_kwargs()), commands)
    return commands, sites


@pytest.mark.parametrize("context", sorted(BACKGROUND))
@pytest.mark.parametrize("run", [1, MAX_PROGRAM_ATTEMPTS])
def test_program_failure_while_the_device_relocates(background_sites, context, run):
    """One failed program is absorbed (the bad page is spent, the copy
    lands on the next); a run of ``MAX_PROGRAM_ATTEMPTS`` defers a scrub
    relocation and surfaces from GC as the host command's Write Fault."""
    commands, sites = background_sites
    site = next(s for s in sites if BACKGROUND[context](s))
    commands = commands[: site.command + 100]  # and a while after it
    plan = tuple(
        ScriptedFault(op=OP_PROGRAM, op_index=site.op + k) for k in range(run)
    )
    oracle, production = make_pair(**aging_device_kwargs(plan))
    outcomes = []
    for device in (oracle, production):
        steps = replay_steps(device, commands)
        log = [next(steps) for _ in range(site.command)]
        assert device.stats.program_failures == 0
        deferred = device.scrub_status().relocations_deferred
        log.append(next(steps))  # the command the relocation ran under
        assert device.stats.program_failures == run
        assert device.faults.plan.pending == 0
        bad = device.ftl._oob[site.ppn]
        assert (bad.lba, bad.ok, bad.stream[0]) == (-1, False, "gc")
        if run > 1:
            if context == "gc-migration":
                assert log[-1] == [("err", "ProgramFailError")]
            else:
                assert device.scrub_status().relocations_deferred > deferred
        log.extend(steps)
        outcomes.append(log)
    assert outcomes[0] == outcomes[1]
    assert_identical(oracle, production)


def test_deferred_retire_drain_counts_the_pages_it_moved(background_sites):
    """A run of ``MAX_PROGRAM_ATTEMPTS`` failures three programs into a
    retire drain defers the retirement; the pages drained before it are
    still relocations, counted in the device's write ledger."""
    commands, sites = background_sites
    site = next(s for s in sites if BACKGROUND["retire-drain"](s))
    commands = commands[: site.command + 100]
    plan = tuple(
        ScriptedFault(op=OP_PROGRAM, op_index=site.op + 3 + k)
        for k in range(MAX_PROGRAM_ATTEMPTS)
    )
    oracle, production = make_pair(**aging_device_kwargs(plan))
    # Every copy production programs, GC and scrub alike (the oracle
    # migrates GC pages through its own page loop).
    copies = []
    program_moved = production.ftl._program_moved

    def counted(*args):
        copies.append(program_moved(*args))
        return copies[-1]

    production.ftl._program_moved = counted
    for device in (oracle, production):
        steps = replay_steps(device, commands)
        for _ in range(site.command):
            next(steps)
        deferred = device.scrub_status().relocations_deferred
        next(steps)  # the command the drain ran under
        status = device.scrub_status()
        assert status.relocations_deferred == deferred + 1
        assert sum(n for _, n in status.relocated_by_ruh) == status.pages_relocated
        for _ in steps:
            pass
        device.check_invariants()
    del production.ftl._program_moved
    stats = production.stats
    assert sum(copies) == stats.gc_pages_migrated + stats.scrub_pages_relocated
    assert_identical(oracle, production)


@arms
def test_erase_failure_retirement(arm):
    faults = FaultConfig(
        plan=(
            ScriptedFault(op="erase", superblock=3, cycle=1),
            ScriptedFault(op="erase", superblock=9, cycle=1),
        )
    )
    commands = gc_heavy_commands(71, 500, use_pids="fdp" in ARMS[arm])
    oracle, production = make_pair(faults=faults, **ARMS[arm])
    assert replay(oracle, commands) == replay(production, commands)
    assert production.stats.superblocks_retired == 2
    assert_identical(oracle, production)


@pytest.mark.parametrize("fdp", [False, True])
def test_device_full_once_retirements_eat_the_spare_capacity(fdp):
    """Erase failures retire blocks until the device cannot reclaim
    space; both implementations give up on the same command, at the
    same page, in the same state (the fault-free, mid-victim version
    is ``test_device_full_mid_gc_leaves_consistent_state``)."""
    faults = FaultConfig(seed=5, erase_fail_rate=0.03)
    oracle, production = make_pair(fdp=fdp, faults=faults)
    outcomes = []
    for device in (oracle, production):
        rng = random.Random(9)
        now = 0
        with pytest.raises(DeviceFullError):
            for i in range(40 * N_LBAS):
                lba = rng.randrange(int(N_LBAS * 0.9))
                pid = PlacementIdentifier(0, rng.randrange(3)) if fdp else None
                now = device.write(lba, rng.randrange(1, 9), pid, now, ("w", i))
        outcomes.append((i, now, device.stats.host_pages_written))
    assert outcomes[0] == outcomes[1]
    assert production.stats.superblocks_retired > 0
    assert_identical(oracle, production)
