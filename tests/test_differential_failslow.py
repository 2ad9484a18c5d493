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

import hashlib
import os
import sys

import pytest

from repro.faults.failslow import FailSlowConfig
from repro.ssd import SimulatedSSD

sys.path.insert(0, os.path.dirname(__file__))  # sibling-module helpers

from test_differential_batch import (  # noqa: E402
    GEOMETRY,
    assert_identical,
    replay_async,
    synthetic_commands,
    zipf_commands,
)
from test_golden_regression import _check_golden  # noqa: E402


def completion_times(device, commands, *, poll_every=7, onsets=None):
    """replay_async, but also harvest the scheduler completion clock.

    ``onsets`` maps a command index to a ``(die, multiplier)`` the
    device's overlay degrades (``slow_die``) just before that command
    is submitted.
    """
    onsets = onsets or {}
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
        if i in onsets:
            device.failslow.slow_die(*onsets[i])
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
    """A quiescent model (no multiplier) is free: same completions,
    same state, zero degradation counters."""
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
    assert slow.scheduler.host_commands > 0
    assert status["slowed_commands"] == 0
    assert status["background_slowed"] == 0
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
    assert status["multipliers"] == {0: 8.0, 1: 8.0}  # die 0 planes
    assert status["slowed_commands"] > 0
    assert status["slow_extra_ns"] > 0
    # Same arrival schedule, strictly later completions somewhere, never
    # earlier anywhere.
    assert len(t_plain) == len(t_slow)
    assert all(b >= a for a, b in zip(t_plain, t_slow))
    assert sum(t_slow) > sum(t_plain)


def test_scripted_plan_activation_state_identical():
    """A mid-stream ``slow_die`` (before command 1000) flips the overlay
    from quiescent to degrading with no state divergence across the
    edge."""
    commands = zipf_commands(64, 3000)
    plain = SimulatedSSD(GEOMETRY, sched=True)
    slow = SimulatedSSD(GEOMETRY, sched=True, failslow=FailSlowConfig())
    t_plain = completion_times(plain, commands)
    t_slow = completion_times(slow, commands, onsets={1000: (1, 16.0)})
    assert_identical(plain, slow)
    status = slow.failslow.status_dict()
    assert status["activations"] == 1
    assert status["slowed_commands"] > 0
    assert t_plain[:1000] == t_slow[:1000]  # quiescent prefix is free
    assert sum(t_slow) > sum(t_plain)


def test_static_and_runtime_slow_die_timing_matches_golden(update_golden):
    """A static die multiplier composed with two mid-stream ``slow_die``
    calls (one on the same die, one on the other) on a GC-active async
    stream: every completion time, the scheduler's wait/blocking and
    background telemetry, and the overlay's slow-down counters are
    pinned to a fixture recorded before the overlay shrank to the one
    slowed-die shape."""
    commands = synthetic_commands(66, 3000)
    device = SimulatedSSD(
        GEOMETRY, sched=True,
        failslow=FailSlowConfig(die_multipliers={0: 3.0}),
    )
    times = completion_times(
        device, commands, onsets={1000: (0, 2.5), 2000: (1, 5.0)}
    )
    device.check_invariants()
    sched, model = device.scheduler, device.failslow
    assert sched.gc_blocked_commands > 0 and model.background_slowed > 0
    _check_golden(
        "failslow_die_stream",
        {
            "completions_sha256": hashlib.sha256(
                ",".join(map(str, times)).encode()
            ).hexdigest(),
            "host_commands": sched.host_commands,
            "host_wait_ns": sched.host_wait_ns,
            "gc_blocked_commands": sched.gc_blocked_commands,
            "background_ns": dict(sched.background_ns),
            "slowed_commands": model.slowed_commands,
            "slow_extra_ns": model.slow_extra_ns,
            "background_slowed": model.background_slowed,
            "background_extra_ns": model.background_extra_ns,
        },
        update_golden,
    )
