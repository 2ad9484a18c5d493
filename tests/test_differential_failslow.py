"""Differential arm: the fail-slow overlay never touches simulated state.

DESIGN.md §16's invariant, in the §10/§12 differential style: a
:class:`~repro.faults.failslow.FailSlowModel` — quiescent *or* actively
degrading — is a pure timing overlay on the scheduler's die-occupancy
model.  A device with the overlay attached must stay bit-identical to
a device without it on every non-timing surface (L2P/P2L, OOB,
journal, stats, events, busy clock, energy, health, superblocks) for
any command stream; only the scheduler's completion timestamps (and
its own stats) may move.  That is what makes the fault *gray*: the
victim device still answers every read correctly and reports healthy
SMART — the only symptom is time.
"""

from __future__ import annotations

import os
import sys

import pytest

from repro.faults.failslow import FailSlowConfig, ScriptedSlowdown
from repro.ssd import SimulatedSSD

sys.path.insert(0, os.path.dirname(__file__))  # sibling-module helpers

from test_differential_batch import (  # noqa: E402
    GEOMETRY,
    assert_identical,
    replay_async,
    synthetic_commands,
    zipf_commands,
)


def completion_times(device, commands, *, poll_every=7):
    """replay_async, but also harvest the scheduler completion clock."""
    times = {}
    tickets = []
    pending = 0

    def drain():
        nonlocal pending
        for comp in device.poll("slow"):
            pending -= 1
            times[comp.ticket] = comp.complete_ns

    for i, (op, lba, npages, pid, payload) in enumerate(commands):
        now = i * 100_000
        tickets.append(
            device.submit_async(
                op, lba, npages, pid, now, queue="slow", payload=payload
            )
        )
        pending += 1
        if pending >= poll_every:
            drain()
    drain()
    assert pending == 0
    return [times[t] for t in tickets]


@pytest.mark.parametrize("fdp", [False, True])
def test_quiescent_failslow_bit_identical(fdp):
    """A quiescent model (no multipliers, no stalls, no plan) is free:
    same completions, same state, zero degradation counters."""
    commands = synthetic_commands(61, 3000, use_pids=fdp)
    plain = SimulatedSSD(GEOMETRY, fdp=fdp, sched=True)
    slow = SimulatedSSD(
        GEOMETRY, fdp=fdp, sched=True,
        failslow=FailSlowConfig(),
    )
    assert replay_async(plain, commands) == replay_async(slow, commands)
    assert_identical(plain, slow)
    status = slow.failslow.status_dict()
    assert status["enabled"] is False
    assert status["commands_seen"] > 0
    assert status["slowed_commands"] == 0
    assert status["stalls_served"] == 0
    # The quiescent scheduler stats match too (histograms included).
    assert (
        plain.scheduler.merged_histogram("read").counts
        == slow.scheduler.merged_histogram("read").counts
    )


def test_active_die_slowdown_state_identical_timing_differs():
    """An actively degraded die leaves every state surface bit-identical
    — including the busy clock, which belongs to the sync latency model,
    not the scheduler — while scheduler completions demonstrably slip."""
    commands = zipf_commands(62, 3000)
    plain = SimulatedSSD(GEOMETRY, sched=True)
    slow = SimulatedSSD(
        GEOMETRY, sched=True,
        failslow=FailSlowConfig(die_multipliers={0: 8.0}),
    )
    t_plain = completion_times(plain, commands)
    t_slow = completion_times(slow, commands)
    assert_identical(plain, slow)
    status = slow.failslow.status_dict()
    assert status["enabled"] is True
    assert status["static_multipliers"] == {0: 8.0, 1: 8.0}  # die 0 planes
    assert status["slowed_commands"] > 0
    assert status["slow_extra_ns"] > 0
    # Same arrival schedule, strictly later completions somewhere, never
    # earlier anywhere.
    assert len(t_plain) == len(t_slow)
    assert all(b >= a for a, b in zip(t_plain, t_slow))
    assert sum(t_slow) > sum(t_plain)


def test_scripted_stall_state_identical():
    """Periodic firmware stall windows push completions but no state."""
    commands = synthetic_commands(63, 2500)
    plain = SimulatedSSD(GEOMETRY, sched=True)
    slow = SimulatedSSD(
        GEOMETRY, sched=True,
        failslow=FailSlowConfig(
            stall_interval_ns=2_000_000, stall_duration_ns=400_000
        ),
    )
    t_plain = completion_times(plain, commands)
    t_slow = completion_times(slow, commands)
    assert_identical(plain, slow)
    status = slow.failslow.status_dict()
    assert status["stalls_served"] > 0
    assert status["stall_ns"] > 0
    assert all(b >= a for a, b in zip(t_plain, t_slow))
    assert sum(t_slow) > sum(t_plain)


def test_scripted_plan_activation_state_identical():
    """A mid-stream ScriptedSlowdown (at_command) flips the overlay from
    quiescent to degrading with no state divergence across the edge."""
    commands = zipf_commands(64, 3000)
    plain = SimulatedSSD(GEOMETRY, sched=True)
    slow = SimulatedSSD(
        GEOMETRY, sched=True,
        failslow=FailSlowConfig(
            plan=(
                ScriptedSlowdown(at_command=1000, die=1, multiplier=16.0),
            ),
        ),
    )
    t_plain = completion_times(plain, commands)
    t_slow = completion_times(slow, commands)
    assert_identical(plain, slow)
    status = slow.failslow.status_dict()
    assert status["scripted_activated"] == 1
    assert status["scripted_pending"] == 0
    assert status["slowed_commands"] > 0
    assert t_plain[:900] == t_slow[:900]  # quiescent prefix is free
    assert sum(t_slow) > sum(t_plain)


def test_read_creep_state_identical():
    """Wear-correlated read creep (grows with per-die erase count) is
    still only timing."""
    commands = synthetic_commands(65, 3000)
    plain = SimulatedSSD(GEOMETRY, sched=True)
    slow = SimulatedSSD(
        GEOMETRY, sched=True,
        failslow=FailSlowConfig(
            read_creep_ns_per_erase=2_000, read_creep_cap_ns=200_000
        ),
    )
    completion_times(plain, commands)
    completion_times(slow, commands)
    assert_identical(plain, slow)
    status = slow.failslow.status_dict()
    assert status["die_erases"]  # GC ran, erases were counted
    assert status["creeped_commands"] > 0
    assert status["creep_extra_ns"] > 0
