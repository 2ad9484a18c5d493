"""Differential tier for the kernel fast path (DESIGN.md §15).

Two equivalences, each held bit-exactly, never statistically:

* **device layer** — ``write_arrays`` (the kernel's coalescing array
  submission) against a queue-depth-1 caller threading ``write``;
  every surface :func:`tests.test_differential_batch.assert_identical`
  compares must match, across synthetic and Zipf streams, fault
  plans, scripted and external power cuts, and the scheduler overlay.
  A hypothesis property replays *arbitrary chunkings* of one op array
  and requires the result to be independent of the split.

* **replay layer** — there is one replay loop
  (:func:`repro.bench.driver.replay`), so nothing is left to compare
  it against; what is pinned is the adapter
  (:class:`repro.kernel.replay.KernelBench` on a ``TraceArrays`` gives
  the full :class:`~repro.bench.metrics.RunResult`, cache
  ``stats_dict()`` and device state of
  :class:`repro.bench.driver.CacheBench` on the ``Trace``) and a
  hypothesis property that the loop's poll-window column conversion
  is invisible to everything simulated.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.bench import Scale, build_experiment, make_trace
from repro.bench.driver import CacheBench, ReplayConfig
from repro.faults.model import FaultConfig
from repro.faults.plan import OP_POWER, ScriptedFault
from repro.fdp import PlacementIdentifier
from repro.kernel import KernelBench, TraceArrays
from repro.ssd import SimulatedSSD
from repro.ssd.errors import MediaError, PowerLossError
from repro.workloads.trace import OP_DEL, OP_GET, OP_SET, Trace
from tests.test_differential_batch import (
    GEOMETRY,
    N_LBAS,
    assert_identical,
)

SPAN = int(N_LBAS * 0.8)


# --------------------------------------------------------------------
# device layer: write_arrays vs threaded scalar writes
# --------------------------------------------------------------------


def write_stream(seed, num_ops, *, contig=0.7, max_extent=8):
    """A seeded write stream with coalescable contiguous runs.

    With probability ``contig`` a command continues the previous
    command's LBA range *and shares its payload object* — the exact
    condition ``write_arrays`` coalesces on — so the stream exercises
    both the run fast path and every run-breaking condition.
    """
    rng = random.Random(seed)
    lbas, npages, payloads = [], [], []
    payload = None
    for i in range(num_ops):
        n = rng.randrange(1, max_extent + 1)
        if (
            payload is not None
            and rng.random() < contig
            and lbas[-1] + npages[-1] + n <= SPAN
        ):
            lba = lbas[-1] + npages[-1]
        else:
            lba = rng.randrange(0, SPAN - n)
            payload = ("k", seed, i)
        lbas.append(lba)
        npages.append(n)
        payloads.append(payload)
    return lbas, npages, payloads


def replay_writes(device, stream, pid=None, now=0):
    """Queue-depth-1 scalar reference: thread ``write`` per command."""
    lbas, npages, payloads = stream
    dones = []
    for lba, n, payload in zip(lbas, npages, payloads):
        now = device.write(lba, n, pid, now, payload)
        dones.append(now)
    return dones


def replay_chunked(device, stream, chunk_sizes, pid=None, now=0):
    """The kernel path: ``write_arrays`` per chunk, threading ``now``."""
    lbas, npages, payloads = stream
    dones = []
    start = 0
    for size in chunk_sizes:
        stop = start + size
        part = device.write_arrays(
            lbas[start:stop],
            npages[start:stop],
            pid,
            now,
            payloads[start:stop],
        )
        dones.extend(part)
        now = part[-1]
        start = stop
    return dones


def chunkings(rng, n, max_chunk=64):
    sizes = []
    remaining = n
    while remaining:
        c = min(remaining, rng.randrange(1, max_chunk + 1))
        sizes.append(c)
        remaining -= c
    return sizes


@pytest.mark.parametrize("fdp", [False, True])
@pytest.mark.parametrize("seed", [7, 2026])
def test_write_arrays_bit_identical(fdp, seed):
    stream = write_stream(seed, 2500)
    pid = PlacementIdentifier(0, 3) if fdp else None
    scalar = SimulatedSSD(GEOMETRY, fdp=fdp, io_path="scalar")
    batched = SimulatedSSD(GEOMETRY, fdp=fdp, io_path="batched")
    dones_s = replay_writes(scalar, stream, pid)
    dones_b = replay_chunked(
        batched, stream, chunkings(random.Random(seed), 2500), pid
    )
    assert dones_s == dones_b
    assert_identical(scalar, batched)


def test_write_arrays_zipf_stream_bit_identical():
    """Zipf-skewed starts (the cache-like overwrite pattern): heavy
    invalidation traffic through the bulk-invalidate branch."""
    rng = random.Random(99)
    starts = SPAN // 8
    weights = [1.0 / (rank + 1) ** 1.2 for rank in range(starts)]
    lbas, npages, payloads = [], [], []
    for i in range(2500):
        lbas.append(rng.choices(range(starts), weights)[0] * 8)
        npages.append(rng.randrange(1, 9))
        payloads.append(("z", i))
    stream = (lbas, npages, payloads)
    scalar = SimulatedSSD(GEOMETRY, io_path="scalar")
    batched = SimulatedSSD(GEOMETRY, io_path="batched")
    assert replay_writes(scalar, stream) == replay_chunked(
        batched, stream, chunkings(rng, 2500)
    )
    assert_identical(scalar, batched)


def test_write_arrays_fault_plan_identical():
    """Faulty devices resolve to the scalar loop inside write_arrays;
    per-command errors must land on the same commands either way."""

    def faults():
        return FaultConfig(
            seed=0xBEEF,
            read_uecc_rate=2e-3,
            program_fail_rate=2e-3,
            plan=(ScriptedFault(op="erase", superblock=3, cycle=1),),
        )

    stream = write_stream(11, 3000)
    lbas, npages, payloads = stream
    reads = random.Random(12)
    scalar = SimulatedSSD(GEOMETRY, faults=faults(), io_path="scalar")
    arrays = SimulatedSSD(GEOMETRY, faults=faults(), io_path="batched")
    log_s, log_a = [], []
    now_s = now_a = 0
    for i in range(len(lbas)):
        try:
            now_s = scalar.write(lbas[i], npages[i], None, now_s, payloads[i])
            log_s.append(("w", now_s))
        except MediaError as exc:
            log_s.append(("err", type(exc).__name__))
        try:
            done = arrays.write_arrays(
                [lbas[i]], [npages[i]], None, now_a, [payloads[i]]
            )
            now_a = done[-1]
            log_a.append(("w", now_a))
        except MediaError as exc:
            log_a.append(("err", type(exc).__name__))
        if reads.random() < 0.2:
            # Interleaved read-backs surface UECCs (program failures
            # are absorbed by the in-device retry, so a write-only
            # stream would never raise).
            for device, log, clock in (
                (scalar, log_s, now_s),
                (arrays, log_a, now_a),
            ):
                try:
                    mapped, done = device.read(lbas[i], npages[i], clock)
                    log.append(("r", mapped, done))
                except MediaError as exc:
                    log.append(("err", type(exc).__name__))
    assert log_s == log_a
    assert any(entry[0] == "err" for entry in log_s)
    assert_identical(scalar, arrays)


def test_write_arrays_scripted_power_cut():
    """An OP_POWER entry tears the same page of the same command in a
    multi-command array call; recovery rebuilds the same state and the
    stream continues identically through the fast path."""

    def faults():
        return FaultConfig(
            plan=(ScriptedFault(op=OP_POWER, op_index=401),)
        )

    first = write_stream(5, 300)
    second = write_stream(6, 300)
    scalar = SimulatedSSD(GEOMETRY, faults=faults(), io_path="scalar")
    arrays = SimulatedSSD(GEOMETRY, faults=faults(), io_path="batched")

    with pytest.raises(PowerLossError) as exc_s:
        replay_writes(scalar, first)
    with pytest.raises(PowerLossError) as exc_a:
        replay_chunked(arrays, first, [300])
    assert exc_s.value.pages_durable == exc_a.value.pages_durable
    rep_s = scalar.recover()
    rep_a = arrays.recover()
    assert (
        rep_s.journal_entries_replayed == rep_a.journal_entries_replayed
    )
    assert_identical(scalar, arrays)
    assert replay_writes(scalar, second) == replay_chunked(
        arrays, second, chunkings(random.Random(6), 300)
    )
    assert_identical(scalar, arrays)


def test_write_arrays_external_power_cut_and_warm_restart():
    """power_cut() between array calls on fault-free devices (the
    batched side genuinely coalesced before the cut)."""
    first = write_stream(21, 1200)
    second = write_stream(22, 1200)
    scalar = SimulatedSSD(GEOMETRY, fdp=True, io_path="scalar")
    arrays = SimulatedSSD(GEOMETRY, fdp=True, io_path="batched")
    assert replay_writes(scalar, first) == replay_chunked(
        arrays, first, chunkings(random.Random(21), 1200)
    )
    assert scalar.power_cut().torn_writes == arrays.power_cut().torn_writes
    scalar.recover()
    arrays.recover()
    assert_identical(scalar, arrays)
    assert replay_writes(scalar, second) == replay_chunked(
        arrays, second, [1200]
    )
    assert_identical(scalar, arrays)


def test_write_arrays_scheduler_overlay_identical():
    """The multi-queue scheduler is a timing overlay: a sched-attached
    device driven queue-depth-1 through submit_async must equal a
    plain device driven through write_arrays."""
    stream = write_stream(13, 2000)
    lbas, npages, payloads = stream
    plain = SimulatedSSD(GEOMETRY, io_path="batched")
    sched = SimulatedSSD(GEOMETRY, io_path="batched", sched=True)
    dones_plain = replay_chunked(
        plain, stream, chunkings(random.Random(13), 2000)
    )
    dones_sched = []
    now = 0
    for i in range(len(lbas)):
        sched.submit_async(
            "write", lbas[i], npages[i], None, now, queue="k",
            payload=payloads[i],
        )
        (comp,) = sched.poll("k")
        assert comp.ok
        now = comp.result
        dones_sched.append(now)
    assert dones_plain == dones_sched
    assert_identical(plain, sched)
    assert sched.scheduler.host_commands == len(lbas)


# --------------------------------------------------------------------
# hypothesis: replay is invariant under arbitrary chunking
# --------------------------------------------------------------------

_PROP_STREAM = write_stream(0xFEED, 60, max_extent=6)
_reference = None


def _reference_state():
    global _reference
    if _reference is None:
        device = SimulatedSSD(GEOMETRY, fdp=True, io_path="batched")
        dones = replay_chunked(
            device, _PROP_STREAM, [60], PlacementIdentifier(0, 2)
        )
        _reference = (device, dones)
    return _reference


@st.composite
def partitions(draw, total=60):
    sizes = []
    remaining = total
    while remaining:
        c = draw(st.integers(1, min(remaining, 13)))
        sizes.append(c)
        remaining -= c
    return sizes


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(chunks=partitions())
def test_any_chunking_replays_identically(chunks):
    ref_device, ref_dones = _reference_state()
    device = SimulatedSSD(GEOMETRY, fdp=True, io_path="batched")
    dones = replay_chunked(
        device, _PROP_STREAM, chunks, PlacementIdentifier(0, 2)
    )
    assert dones == ref_dones
    assert_identical(ref_device, device)


# --------------------------------------------------------------------
# device telemetry hooks: detached records nothing, state unchanged
# --------------------------------------------------------------------


def core_state(device):
    """The non-telemetry surfaces a detached device must preserve."""
    return (
        device.ftl._l2p,
        device.ftl._p2l,
        device.snapshot(),
        device.ftl._journal.buffer,
        device.ftl._journal.flushed,
        [
            (sb.state, sb.write_ptr, sb.valid_pages, sb.erase_count)
            for sb in device.ftl.superblocks
        ],
        device.ftl.latency.busy_until,
    )


def test_device_telemetry_detached_records_nothing():
    stream = write_stream(77, 2500)
    chunks = chunkings(random.Random(77), 2500)
    attached = SimulatedSSD(GEOMETRY, fdp=True, io_path="batched")
    detached = SimulatedSSD(
        GEOMETRY, fdp=True, io_path="batched", telemetry=False
    )
    legacy = SimulatedSSD(GEOMETRY, fdp=True, io_path="scalar")
    pid = PlacementIdentifier(0, 1)
    dones_a = replay_chunked(attached, stream, chunks, pid)
    dones_d = replay_chunked(detached, stream, chunks, pid)
    dones_l = replay_writes(legacy, stream, pid)
    assert dones_a == dones_d == dones_l

    # Detached: zero telemetry recorded anywhere...
    assert detached.events.recent() == []
    assert detached.events.media_relocated_events == 0
    assert detached.energy_kwh(dones_d[-1]) == 0.0
    assert not detached.events.enabled
    # ...while simulated state is untouched.
    assert core_state(detached) == core_state(attached)
    detached.check_invariants()

    # Attached: the kernel path's event stream matches the legacy
    # scalar path's exactly (the hook guards dropped no events).
    assert attached.events.recent() == legacy.events.recent()
    assert attached.energy_kwh(dones_a[-1]) == legacy.energy_kwh(
        dones_l[-1]
    )
    assert len(attached.events.recent()) > 0

    # format() must preserve the telemetry choice.
    detached.format()
    assert not detached.events.enabled
    assert detached.energy_kwh(0) == 0.0


# --------------------------------------------------------------------
# replay layer: the adapter, and poll-window independence
# --------------------------------------------------------------------

_SCALE = Scale(num_superblocks=64, num_ops=12_000)


def build_arm(**kwargs):
    cache = build_experiment(
        fdp=kwargs.pop("fdp", True),
        utilization=kwargs.pop("utilization", 0.9),
        scale=_SCALE,
        **kwargs,
    )
    trace = make_trace(
        "kvcache", cache.config.nvm_bytes, _SCALE, seed=20260808
    )
    return cache, trace


def assert_same_run(r1, r2, c1, c2):
    d1, d2 = dataclasses.asdict(r1), dataclasses.asdict(r2)
    assert d1 == d2, {
        k: (d1[k], d2[k]) for k in d1 if d1[k] != d2[k]
    }
    assert c1.stats_dict() == c2.stats_dict()
    assert_identical(c1.device, c2.device)


def mixed_trace(seed, num_ops, *, keyspace=4000, name="mix"):
    """A seeded GET/SET/DEL stream (the generators emit no DELs)."""
    rng = random.Random(seed)
    return Trace(
        rng.choices((OP_GET, OP_SET, OP_DEL), (0.5, 0.4, 0.1), k=num_ops),
        [rng.randrange(0, keyspace) for _ in range(num_ops)],
        [rng.randrange(100, 30_000) for _ in range(num_ops)],
        name=name,
    )


def _closed_loop_case(trace):
    return ReplayConfig(poll_interval_ops=4_000), trace


def _schedule_on_trace_case(trace):
    from repro.workloads.adversarial import build_scenario

    trace = build_scenario("flashcrowd", seed=4).apply(trace)
    assert trace.arrivals_ns is not None
    return ReplayConfig(), trace


def _fixed_interval_case(trace):
    cfg = ReplayConfig(
        fill_on_miss=False,
        arrival_interval_ns=150_000,
        poll_interval_ops=5_000,
    )
    return cfg, mixed_trace(31, 15_000)


@pytest.mark.parametrize(
    "case",
    [_closed_loop_case, _schedule_on_trace_case, _fixed_interval_case],
)
def test_kernel_bench_on_arrays_matches_cache_bench_on_trace(case):
    """``KernelBench().run(cache, TraceArrays)`` is ``CacheBench().run(
    cache, Trace)``: same loop, and a ``TraceArrays`` is a ``Trace``."""
    c1, kvcache = build_arm()
    c2, _ = build_arm()
    cfg, trace = case(kvcache)
    r1 = CacheBench(cfg).run(c1, trace, name="arm")
    r2 = KernelBench(cfg).run(c2, TraceArrays.from_trace(trace), name="arm")
    assert r1.ops == len(trace)
    assert_same_run(r1, r2, c1, c2)


_TINY = Scale(num_superblocks=32)


def _replay_tiny(trace, **config):
    # A DRAM of a few objects, so a few hundred ops reach the flash.
    cache = build_experiment(
        fdp=True, utilization=0.9, scale=_TINY, dram_bytes=64 * 1024
    )
    return CacheBench(ReplayConfig(**config)).run(cache, trace), cache


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    num_ops=st.integers(0, 300),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(["closed", "interval", "schedule"]),
)
@example(num_ops=0, seed=0, mode="closed")
@example(num_ops=1, seed=0, mode="schedule")
def test_replay_does_not_depend_on_the_poll_window(num_ops, seed, mode):
    """The loop converts columns one poll window at a time; nothing
    simulated may depend on where the windows fall."""
    # 80 keys: DRAM hits, flash hits and misses all occur.
    trace = mixed_trace(seed, num_ops, keyspace=80)
    clock = {}
    if mode == "interval":
        clock["arrival_interval_ns"] = 120_000
    elif mode == "schedule":
        trace.arrivals_ns = np.cumsum(
            np.random.default_rng(seed).integers(0, 250_000, num_ops)
        )
    # One window holding the whole trace: no poll ever fires.
    ref, ref_cache = _replay_tiny(
        trace, poll_interval_ops=num_ops + 1, **clock
    )
    assert ref.ops == num_ops and ref.interval_series == []
    for poll in {1, 7, num_ops - 1, num_ops} - {0, -1}:
        run, cache = _replay_tiny(trace, poll_interval_ops=poll, **clock)
        assert [p.ops for p in run.interval_series] == list(
            range(poll, num_ops + 1, poll)
        )
        # steady_dlwa is derived from the series, so it may differ.
        assert dataclasses.replace(
            run,
            interval_series=[],
            steady_dlwa=ref.steady_dlwa,
        ) == ref
        assert cache.stats_dict() == ref_cache.stats_dict()
        assert_identical(cache.device, ref_cache.device)
