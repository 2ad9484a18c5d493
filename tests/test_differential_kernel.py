"""Differential tier for the array-shaped entry points (DESIGN.md §15).

* **device layer** — ``write_arrays`` is a closed-loop ``now =
  write_range(...)`` per command and nothing more, so what is pinned is
  its contract: the per-command completion times it returns (against
  the per-page oracle threading ``write``, over arbitrary splits of one
  command array, list and numpy columns alike) and that an exception
  mid-array leaves every earlier command's effects in place.  The arms
  that used to compare its coalescer with the per-command loop went
  with the coalescer: they would compare a loop with itself.

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
from repro.ssd.errors import PowerLossError
from repro.workloads.trace import OP_DEL, OP_GET, OP_SET, Trace
from tests.test_differential_batch import (
    N_LBAS,
    assert_identical,
    make_pair,
)

SPAN = int(N_LBAS * 0.8)


# --------------------------------------------------------------------
# device layer: the write_arrays contract
# --------------------------------------------------------------------


def write_stream(seed, num_ops, *, contig=0.7, max_extent=8):
    """A seeded write stream with runs of contiguous commands.

    With probability ``contig`` a command continues the previous
    command's LBA range and shares its payload object (the LOC's
    region-append shape), so back-to-back commands land in one reclaim
    unit as often as they straddle two.
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
    """Queue-depth-1 reference: thread ``write`` per command."""
    lbas, npages, payloads = stream
    dones = []
    for lba, n, payload in zip(lbas, npages, payloads):
        now = device.write(lba, n, pid, now, payload)
        dones.append(now)
    return dones


def replay_chunked(device, stream, chunk_sizes, pid=None, now=0):
    """``write_arrays`` per slice of the array, threading ``now``."""
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
    """The completion times ``write_arrays`` returns, and the state it
    leaves, are those of the oracle threading ``write`` per command —
    however the array is split, and for numpy columns as for lists."""
    lbas, npages, payloads = stream = write_stream(seed, 2500)
    pid = PlacementIdentifier(0, 3) if fdp else None
    oracle, production = make_pair(fdp=fdp)
    dones = replay_writes(oracle, stream, pid)
    if fdp:
        stream = (np.array(lbas), np.array(npages, dtype=np.int32), payloads)
    assert dones == replay_chunked(
        production, stream, chunkings(random.Random(seed), 2500), pid
    )
    assert all(type(done) is int for done in dones)
    assert_identical(oracle, production)
    with pytest.raises(ValueError, match="equal length"):
        production.write_arrays([0, 1], [1])
    with pytest.raises(ValueError, match="payloads"):
        production.write_arrays([0, 1], [1, 1], payloads=["x"])


def test_write_arrays_scripted_power_cut():
    """An exception mid-array propagates as ``write`` raises it, with
    every earlier command's effects in place: an OP_POWER entry tears
    the same page of the same command as in the per-command loop,
    recovery rebuilds the same state and the stream continues."""
    faults = FaultConfig(plan=(ScriptedFault(op=OP_POWER, op_index=401),))
    first = write_stream(5, 300)
    second = write_stream(6, 300)
    oracle, production = make_pair(faults=faults)

    with pytest.raises(PowerLossError) as exc_s:
        replay_writes(oracle, first)
    with pytest.raises(PowerLossError) as exc_a:
        replay_chunked(production, first, [300])
    assert exc_s.value.pages_durable == exc_a.value.pages_durable
    rep_s = oracle.recover()
    rep_a = production.recover()
    assert (
        rep_s.journal_entries_replayed == rep_a.journal_entries_replayed
    )
    assert production.stats.host_pages_written == 400
    assert_identical(oracle, production)
    assert replay_writes(oracle, second) == replay_chunked(
        production, second, chunkings(random.Random(6), 300)
    )
    assert_identical(oracle, production)


# --------------------------------------------------------------------
# device telemetry: the event log and energy ledger match the oracle's
# --------------------------------------------------------------------


def test_device_events_match_the_per_page_oracle():
    stream = write_stream(77, 2500)
    chunks = chunkings(random.Random(77), 2500)
    legacy, production = make_pair(fdp=True)
    pid = PlacementIdentifier(0, 1)
    dones_p = replay_chunked(production, stream, chunks, pid)
    dones_l = replay_writes(legacy, stream, pid)
    assert dones_p == dones_l
    assert production.events.recent() == legacy.events.recent()
    assert production.energy_kwh(dones_p[-1]) == legacy.energy_kwh(dones_l[-1])
    assert len(production.events.recent()) > 0


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
