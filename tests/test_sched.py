"""Multi-queue scheduler: backpressure, die occupancy, completions.

Covers the scheduler's contract surface directly (no cache on top):
queue-depth backpressure that rejects *before* any state executes,
channel-conflict serialization, GC span preemption at segment
boundaries, the log-bucketed histogram, and a Hypothesis property over
arbitrary submit/poll interleavings — every command
completes exactly once and each queue's completion clock is monotone.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd import (
    Geometry,
    LatencyHistogram,
    MultiQueueScheduler,
    QueueFullError,
    SchedConfig,
    SimulatedSSD,
)
from repro.core.device_layer import FdpAwareDevice
from repro.ssd.latency import NandTimings
from tests.test_golden_regression import _check_golden

TIMINGS = NandTimings()
READ_US = TIMINGS.read_ns + TIMINGS.transfer_ns

GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=4,
    planes_per_die=2,
    dies=2,
    num_superblocks=32,
    op_fraction=0.10,
)


def make_sched(**kwargs) -> MultiQueueScheduler:
    return MultiQueueScheduler(SchedConfig(**kwargs), geometry=GEOMETRY)


# --------------------------------------------------------------------
# histogram
# --------------------------------------------------------------------


def test_histogram_bucket_round_trip():
    """bucket_upper_bound is the *largest* value in its bucket: the
    bound maps back to its own index and bound+1 starts the next."""
    for idx in range(4096):
        ub = LatencyHistogram.bucket_upper_bound(idx)
        assert LatencyHistogram.bucket_index(ub) == idx
        assert LatencyHistogram.bucket_index(ub + 1) == idx + 1


def test_histogram_bucket_index_monotone():
    last = -1
    for value in list(range(0, 4097)) + [10**6, 10**9, 10**12]:
        idx = LatencyHistogram.bucket_index(value)
        assert idx >= last
        last = idx
        assert LatencyHistogram.bucket_upper_bound(idx) >= value


def test_histogram_percentiles_and_stats():
    hist = LatencyHistogram()
    for value in (70_000, 70_000, 70_000, 3_000_000):
        hist.record(value)
    assert hist.count == 4
    assert hist.min_ns == 70_000
    assert hist.max_ns == 3_000_000
    assert hist.mean() == pytest.approx((3 * 70_000 + 3_000_000) / 4)
    # p50 lands in the 70 µs bucket, p99/p999 in the 3 ms bucket.
    assert hist.p50() == LatencyHistogram.bucket_upper_bound(
        LatencyHistogram.bucket_index(70_000)
    )
    assert hist.p99() == LatencyHistogram.bucket_upper_bound(
        LatencyHistogram.bucket_index(3_000_000)
    )
    assert hist.p999() == hist.p99()
    # Quantization error is bounded by one sub-bucket (1/16).
    assert 70_000 <= hist.p50() <= 70_000 * 17 // 16


def test_histogram_merge_equals_union():
    left, right, union = (
        LatencyHistogram(), LatencyHistogram(), LatencyHistogram(),
    )
    for i, value in enumerate((5, 17, 70_000, 650_000, 3_000_000, 12)):
        (left if i % 2 else right).record(value)
        union.record(value)
    left.merge(right)
    assert left.counts == union.counts
    assert left.count == union.count
    assert left.sum_ns == union.sum_ns
    assert left.min_ns == union.min_ns
    assert left.max_ns == union.max_ns
    assert left.p99() == union.p99()


def test_histogram_dict_round_trip():
    hist = LatencyHistogram()
    for value in (0, 3, 99, 70_000, 3_000_000):
        hist.record(value)
    clone = LatencyHistogram.from_dict(hist.to_dict())
    assert clone.counts == hist.counts
    assert clone.count == hist.count
    assert clone.sum_ns == hist.sum_ns
    assert (clone.min_ns, clone.max_ns) == (hist.min_ns, hist.max_ns)
    assert clone.p50() == hist.p50()
    empty = LatencyHistogram()
    assert empty.percentile(99.0) == 0
    assert LatencyHistogram.from_dict(empty.to_dict()).count == 0


# --------------------------------------------------------------------
# queue-depth backpressure
# --------------------------------------------------------------------


def test_queue_depth_backpressure_and_release():
    sched = make_sched(queue_depth=4)
    for _ in range(4):
        sched.submit("q", "read", lba=0, npages=1, channel=0, now_ns=0)
    assert sched.outstanding("q") == 4
    with pytest.raises(QueueFullError):
        sched.submit("q", "read", lba=0, npages=1, channel=0, now_ns=0)
    # Unpolled completions still hold the window: poll() releases it.
    assert len(sched.poll("q")) == 4
    assert sched.outstanding("q") == 0
    sched.submit("q", "read", lba=0, npages=1, channel=0, now_ns=0)


def test_device_backpressure_rejects_before_state():
    """submit_async at a full queue must not touch the FTL: the write
    is rejected with the target LBA still unmapped."""
    ssd = SimulatedSSD(GEOMETRY, sched=SchedConfig(queue_depth=2))
    ssd.submit_async("read", 40, queue="q")
    ssd.submit_async("read", 41, queue="q")
    with pytest.raises(QueueFullError):
        ssd.submit_async("write", 7, queue="q", payload="rejected")
    assert not ssd.is_mapped(7)
    assert ssd.snapshot().host_pages_written == 0
    ssd.poll("q")
    ssd.submit_async("write", 7, queue="q", payload="accepted")
    assert ssd.is_mapped(7)


# --------------------------------------------------------------------
# channel conflicts
# --------------------------------------------------------------------


def test_same_channel_serializes_different_channels_overlap():
    sched = make_sched()
    sched.submit("q", "read", lba=0, npages=1, channel=0, now_ns=0)
    sched.submit("q", "read", lba=1, npages=1, channel=0, now_ns=0)
    sched.submit("q", "read", lba=2, npages=1, channel=1, now_ns=0)
    comps = {c.lba: c for c in sched.poll("q")}
    assert comps[0].complete_ns == READ_US
    # Same channel: queued behind the first command.
    assert comps[1].complete_ns == 2 * READ_US
    assert comps[1].latency_ns == 2 * READ_US
    # Different channel: runs in parallel with the first.
    assert comps[2].complete_ns == READ_US


def test_channel_for_is_stable_modulo():
    sched = make_sched()
    assert sched.channels == GEOMETRY.dies * GEOMETRY.planes_per_die
    for sb in range(16):
        assert sched.channel_for(sb) == sb % sched.channels


def test_channels_override():
    sched = make_sched(channels=2)
    assert sched.channels == 2


# --------------------------------------------------------------------
# GC span preemption
# --------------------------------------------------------------------


def test_host_read_waits_only_for_inflight_segment():
    """A 32-page GC migration is four 8-page segments; a read arriving
    inside the first segment waits for that segment only — the three
    queued segments yield at the boundary and resume behind it."""
    sched = make_sched(segment_pages=8)
    per_page = TIMINGS.read_ns + TIMINGS.program_ns
    seg = max(per_page, 8 * per_page // TIMINGS.parallelism)
    sched.note_background("gc_migrate", 0, 32, 0)
    assert sched.background_segments["gc_migrate"] == 4
    sched.submit("q", "read", lba=0, npages=1, channel=0, now_ns=100)
    (comp,) = sched.poll("q")
    assert comp.complete_ns == seg + READ_US
    assert sched.gc_blocked_commands == 1
    assert sched.host_wait_ns == seg - 100
    # The yielded segments resume behind the host command: a second
    # read arriving during segment 2 waits for segment 2 only.
    resume = comp.complete_ns  # segment 2 starts when the read finishes
    sched.submit("q", "read", lba=0, npages=1, channel=0,
                 now_ns=resume + 1000)
    (comp2,) = sched.poll("q")
    assert comp2.complete_ns == resume + seg + READ_US


def test_erase_span_is_indivisible():
    """Erase is one segment: a read arriving 1 ns in still waits the
    full 3 ms — that is the tail the model exists to produce."""
    sched = make_sched()
    sched.note_background("erase", 0, 0, 0)
    sched.submit("q", "read", lba=0, npages=1, channel=0, now_ns=1)
    (comp,) = sched.poll("q")
    assert comp.complete_ns == TIMINGS.erase_ns + READ_US
    assert comp.latency_ns == TIMINGS.erase_ns + READ_US - 1


def test_host_command_at_boundary_preempts_queued_segment():
    """A segment that has not started when the host command arrives
    yields: the command runs first, the segment resumes after."""
    sched = make_sched()
    sched.note_background("erase", 0, 0, 0)
    # Arrives exactly at the segment's would-be start: host wins.
    sched.submit("q", "read", lba=0, npages=1, channel=0, now_ns=0)
    (comp,) = sched.poll("q")
    assert comp.complete_ns == READ_US
    assert sched.gc_blocked_commands == 0
    # The erase then occupies [READ_US, READ_US + erase).
    sched.submit("q", "read", lba=0, npages=1, channel=0,
                 now_ns=READ_US + 5)
    (comp2,) = sched.poll("q")
    assert comp2.complete_ns == READ_US + TIMINGS.erase_ns + READ_US


def test_background_on_other_channel_does_not_block():
    sched = make_sched()
    sched.note_background("erase", 1, 0, 0)  # channel 1
    sched.submit("q", "read", lba=0, npages=1, channel=0, now_ns=0)
    (comp,) = sched.poll("q")
    assert comp.complete_ns == READ_US
    assert sched.gc_blocked_commands == 0


# --------------------------------------------------------------------
# device-level async plumbing
# --------------------------------------------------------------------


def test_submit_async_matches_sync_state_and_results():
    """The async path returns the same op results as the sync calls and
    routes reads to the channel of the mapped superblock."""
    ssd = SimulatedSSD(GEOMETRY, sched=True)
    ref = SimulatedSSD(GEOMETRY)
    t_w = ssd.submit_async("write", 10, 4, None, 0, queue="q",
                           payload="x")
    t_r = ssd.submit_async("read", 10, 4, None, 0, queue="q")
    t_t = ssd.submit_async("trim", 10, 2, None, 0, queue="q")
    by_ticket = {c.ticket: c for c in ssd.poll("q")}
    assert by_ticket[t_w].result == ref.write(10, 4, None, 0, "x")
    assert by_ticket[t_r].result == ref.read(10, 4, 0)
    assert by_ticket[t_t].result == ref.deallocate(10, 2)
    assert all(c.ok for c in by_ticket.values())
    assert ssd.ftl._l2p == ref.ftl._l2p


def test_qd1_sync_path_timing_matches_golden(update_golden):
    """Differential for the queue-depth-1 path every sync I/O takes
    (``device_layer`` → ``SimulatedSSD.write``/``read`` →
    ``MultiQueueScheduler.issue``): on a GC-active overwrite stream over
    three queues, completion times, per-queue histograms,
    ``host_wait_ns`` and ticket numbers are pinned to a fixture
    recorded while sync commands still went through ``submit`` and
    ``poll``; the stream's trims still do."""
    ssd = SimulatedSSD(GEOMETRY, sched=True)
    io = FdpAwareDevice(ssd)
    sched = ssd.scheduler
    rng = random.Random(14)
    pages = ssd.capacity_pages
    queues = ("soc", "loc", "meta")
    now = 0
    completions = hashlib.sha256()
    for n in range(6 * pages):  # several device fills: GC runs throughout
        queue = queues[rng.randrange(3)]
        lba = rng.randrange(pages - 4)
        roll = rng.random()
        if roll < 0.7:
            now = io.write(lba, rng.randint(1, 4), now_ns=now, worker=queue)
        elif roll < 0.95:
            _, now = io.read(lba, rng.randint(1, 4), now, queue)
        else:
            ticket = ssd.submit_async("trim", lba, 2, None, now, queue=queue)
            (comp,) = ssd.poll(queue)
            assert (comp.ticket, comp.queue, comp.ok) == (ticket, queue, True)
            assert ticket == n  # tickets count commands, sync ones too
            now = comp.complete_ns
        # QD=1: each command is timed as it arrives.
        assert sched.host_commands == n + 1
        assert sched.outstanding() == 0
        completions.update(b"%d," % now)
    assert sched.gc_blocked_commands > 0  # the stream does reach GC
    ssd.check_invariants()
    _check_golden(
        "sched_qd1_gc_stream",
        {
            "completions_sha256": completions.hexdigest(),
            "final_ns": now,
            "host_commands": sched.host_commands,
            "host_wait_ns": sched.host_wait_ns,
            "gc_blocked_commands": sched.gc_blocked_commands,
            "background_ns": dict(sched.background_ns),
            "histograms": {
                queue: {op: hist.to_dict() for op, hist in sorted(ops.items())}
                for queue, ops in sorted(sched.histograms().items())
            },
        },
        update_golden,
    )


def test_async_stream_timing_matches_golden(update_golden):
    """One queue of async commands, polled every seven submissions at
    queue depth 8, on a GC-active stream with non-decreasing submit
    times and no fail-slow model: completion times (in poll order),
    tickets, histograms and ``host_wait_ns`` are pinned to a fixture
    recorded while async commands were still dispatched at poll time
    (an async command is now timed when it is submitted)."""
    ssd = SimulatedSSD(GEOMETRY, sched=SchedConfig(queue_depth=8))
    sched = ssd.scheduler
    rng = random.Random(29)
    pages = ssd.capacity_pages
    now = 0
    completions = hashlib.sha256()
    tickets = hashlib.sha256()
    polled = 0

    def drain():
        nonlocal polled
        for comp in ssd.poll("q"):
            assert comp.ok and comp.queue == "q"
            completions.update(b"%d,%d," % (comp.complete_ns, comp.latency_ns))
            tickets.update(b"%d," % comp.ticket)
            polled += 1

    for n in range(6 * pages):  # several device fills: GC runs throughout
        lba = rng.randrange(pages - 4)
        roll = rng.random()
        op = "write" if roll < 0.7 else "read" if roll < 0.95 else "trim"
        ssd.submit_async(
            op, lba, rng.randint(1, 4), None, now, queue="q",
            payload=n if op == "write" else None,
        )
        now += rng.choice((0, 0, 20_000, 150_000, 900_000))
        if n % 7 == 6:
            drain()
    drain()
    assert polled == 6 * pages and sched.outstanding() == 0
    assert sched.gc_blocked_commands > 0  # the stream does reach GC
    ssd.check_invariants()
    _check_golden(
        "sched_async_gc_stream",
        {
            "completions_sha256": completions.hexdigest(),
            "tickets_sha256": tickets.hexdigest(),
            "host_commands": sched.host_commands,
            "host_wait_ns": sched.host_wait_ns,
            "gc_blocked_commands": sched.gc_blocked_commands,
            "background_ns": dict(sched.background_ns),
            "histograms": {
                queue: {op: hist.to_dict() for op, hist in sorted(ops.items())}
                for queue, ops in sorted(sched.histograms().items())
            },
        },
        update_golden,
    )


def test_submit_async_requires_scheduler():
    ssd = SimulatedSSD(GEOMETRY)
    assert ssd.scheduler is None
    with pytest.raises(ValueError):
        ssd.submit_async("read", 0, queue="q")
    with pytest.raises(ValueError):
        ssd.poll("q")


def test_format_rebuilds_scheduler():
    ssd = SimulatedSSD(GEOMETRY, sched=True)
    ssd.submit_async("write", 0, queue="q", payload="v")
    ssd.poll("q")
    old = ssd.scheduler
    assert old.host_commands == 1
    ssd.format()
    assert ssd.scheduler is not old
    assert ssd.scheduler.host_commands == 0


# --------------------------------------------------------------------
# Hypothesis: exactly-once completion, monotone per-queue clocks
# --------------------------------------------------------------------

_ACTIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.sampled_from(["alpha", "beta"]),
            st.sampled_from(["write", "read", "trim"]),
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=1, max_value=4),
        ),
        st.tuples(
            st.just("poll"),
            st.sampled_from(["alpha", "beta"]),
            st.integers(min_value=0, max_value=5),
        ),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(actions=_ACTIONS)
def test_any_interleaving_completes_exactly_once(actions):
    """Any interleaving of submit_async/poll: every accepted command
    completes exactly once, per-poll completions are in completion-time
    order, and each queue's completion clock never regresses."""
    ssd = SimulatedSSD(GEOMETRY, sched=SchedConfig(queue_depth=6))
    now = 0
    submitted = set()
    completed = []
    clocks = {"alpha": 0, "beta": 0}

    def drain(queue, limit=None):
        comps = ssd.poll(queue, limit)
        last = None
        for comp in comps:
            assert comp.queue == queue
            assert comp.ok
            assert comp.latency_ns == comp.complete_ns - comp.submit_ns
            assert comp.latency_ns >= 0
            if last is not None:
                assert comp.complete_ns >= last  # in-order within a poll
            last = comp.complete_ns
        clock = ssd.scheduler.queue(queue).clock_ns
        assert clock >= clocks[queue]  # monotone completion clock
        clocks[queue] = clock
        completed.extend(c.ticket for c in comps)

    for action in actions:
        if action[0] == "submit":
            _, queue, op, lba, npages = action
            payload = ("p", len(submitted)) if op == "write" else None
            try:
                ticket = ssd.submit_async(
                    op, lba, npages, None, now, queue=queue, payload=payload
                )
            except QueueFullError:
                assert ssd.scheduler.outstanding(queue) == 6
                continue
            assert ticket not in submitted
            submitted.add(ticket)
            now += 10_000
        else:
            _, queue, limit = action
            drain(queue, limit or None)

    drain("alpha")
    drain("beta")
    assert sorted(completed) == sorted(submitted)  # exactly once
    assert len(completed) == len(set(completed))
    assert ssd.scheduler.outstanding() == 0
