"""Crash-consistency tests: power-loss injection, L2P recovery, and
cache warm restart.

The scenarios mirror DESIGN.md §9: quiescent cuts, scripted mid-command
tears, in-flight window tears, journal/checkpoint cadence, the TRIM and
GC-erase write barriers, and the CacheLib-style warm restart of both
NVM engines.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench import run_crash_soak
from repro.cache import CacheConfig, HybridCache
from repro.cache.hybrid import MISS
from repro.faults import OP_POWER, FaultConfig, PowerLossError, ScriptedFault
from repro.fdp import FdpEventType
from repro.ssd import (
    DeviceOfflineError,
    Geometry,
    SimulatedSSD,
)
from repro.ssd.recovery import MappingJournal


def tiny_device(**kwargs) -> SimulatedSSD:
    geometry = Geometry(
        page_size=4096,
        pages_per_block=4,
        planes_per_die=2,
        dies=2,
        num_superblocks=32,
        op_fraction=0.10,
    )
    kwargs.setdefault("fdp", True)
    return SimulatedSSD(geometry, **kwargs)


class TestQuiescentCut:
    def test_cut_then_recover_restores_mapping_and_payloads(self):
        dev = tiny_device()
        now = 0
        for lba in range(64):
            now = dev.write(lba, 1, now_ns=now, payload=("tok", lba))
        report = dev.power_cut()
        assert report.clean
        assert dev.powered_off
        rec = dev.recover()
        assert not dev.powered_off
        assert rec.mappings_recovered == 64
        dev.check_invariants()
        for lba in range(64):
            assert dev.read_payload(lba) == [("tok", lba)]

    def test_offline_device_rejects_io(self):
        dev = tiny_device()
        dev.write(0)
        dev.power_cut()
        with pytest.raises(DeviceOfflineError):
            dev.write(1)
        with pytest.raises(DeviceOfflineError):
            dev.read(0)
        with pytest.raises(DeviceOfflineError):
            dev.deallocate(0)

    def test_power_cut_is_idempotent(self):
        dev = tiny_device()
        dev.write(0)
        dev.power_cut()
        cuts = dev.stats.power_cuts
        dev.power_cut()
        assert dev.stats.power_cuts == cuts

    def test_counters_and_events_survive_the_cut(self):
        dev = tiny_device()
        now = 0
        for lba in range(32):
            now = dev.write(lba, 1, now_ns=now)
        host_before = dev.stats.host_pages_written
        dev.power_cut()
        dev.recover()
        assert dev.stats.host_pages_written == host_before
        assert dev.stats.power_cuts == 1
        assert dev.stats.recoveries == 1
        types = [e.event_type for e in dev.events.recent(10)]
        assert FdpEventType.POWER_LOSS in types
        assert FdpEventType.RECOVERY_COMPLETE in types

    def test_write_resumes_after_recovery(self):
        dev = tiny_device()
        now = 0
        for lba in range(48):
            now = dev.write(lba, 1, now_ns=now, payload=lba)
        dev.power_cut()
        dev.recover()
        for lba in range(48, 96):
            now = dev.write(lba, 1, now_ns=now, payload=lba)
        dev.check_invariants()
        for lba in range(96):
            assert dev.read_payload(lba) == [lba]


class TestScriptedCut:
    def test_mid_command_tear_keeps_durable_prefix(self):
        plan = (ScriptedFault(op=OP_POWER, op_index=20),)
        dev = tiny_device(faults=FaultConfig(plan=plan))
        now = 0
        with pytest.raises(PowerLossError) as exc_info:
            for lba in range(0, 64, 4):
                now = dev.write(lba, 4, now_ns=now, payload=("w", lba))
        exc = exc_info.value
        # op 20 falls on page 3 (0-based) of the write at lba 16.
        assert exc.lba == 16
        assert exc.npages == 4
        assert exc.pages_durable == 3
        assert dev.powered_off
        rec = dev.recover()
        dev.check_invariants()
        assert rec.torn_pages_discarded >= 1
        # Acknowledged commands fully survive.
        for lba in range(16):
            assert dev.is_mapped(lba)
        # The torn command keeps exactly its durable prefix.
        for off in range(4):
            assert dev.is_mapped(16 + off) == (off < exc.pages_durable)
        # Nothing after the cut was ever written.
        for lba in range(20, 64):
            assert not dev.is_mapped(lba)

    def test_scripted_cut_increments_health_counters(self):
        plan = (ScriptedFault(op=OP_POWER, op_index=5),)
        dev = tiny_device(faults=FaultConfig(plan=plan))
        with pytest.raises(PowerLossError):
            for lba in range(16):
                dev.write(lba)
        dev.recover()
        health = dev.get_health_log()
        assert health.power_cuts == 1
        assert health.recoveries == 1
        assert health.torn_pages_discarded >= 1


class TestInflightCut:
    def test_tear_report_reconciles_exactly(self):
        dev = tiny_device(power_seed=7)
        now = 0
        issued = []  # (lba, npages, completion_ns)
        for i in range(12):
            lba = i * 4
            done = dev.write(lba, 4, now_ns=now, payload=("cmd", i))
            issued.append((lba, 4, done))
            now = done
        # Cut before the last three completions.
        cut_ns = issued[-3][2] - 1
        report = dev.power_cut(cut_ns)
        assert report.torn_writes  # at least one command torn
        # Torn commands are a suffix of issue order.
        torn = list(report.torn_writes)
        suffix = issued[-len(torn):]
        assert [(t.lba, t.npages) for t in torn] == [
            (lba, npages) for lba, npages, _ in suffix
        ]
        dev.recover()
        dev.check_invariants()
        durable = {}
        for lba, npages, _ in issued[: len(issued) - len(torn)]:
            for off in range(npages):
                durable[lba + off] = True
        for t in torn:
            for off in range(t.npages):
                durable[t.lba + off] = off < t.pages_durable
        for lba, expect in durable.items():
            assert dev.is_mapped(lba) == expect, f"LBA {lba}"

    def test_tear_point_is_seed_deterministic(self):
        def torn_profile(seed):
            dev = tiny_device(power_seed=seed)
            now = 0
            acks = []
            for i in range(8):
                now = dev.write(i * 4, 4, now_ns=now)
                acks.append(now)
            report = dev.power_cut(acks[-4] - 1)
            return [(t.lba, t.pages_durable) for t in report.torn_writes]

        assert torn_profile(3) == torn_profile(3)


class _PerEntryJournal(MappingJournal):
    """``append`` as it stood before ``append_moves`` became the one
    loop (and ``append`` its one-entry case), kept verbatim as the
    oracle for run merging and flush boundaries."""

    __slots__ = ()

    def append(self, seq: int, lba: int, ppn: int) -> None:
        buf = self._buf
        if buf and ppn >= 0:
            ls, ll, lp, lc = buf[-1]
            if seq == ls + lc and lba == ll + lc and ppn == lp + lc:
                buf[-1] = (ls, ll, lp, lc + 1)
                self._buf_len += 1
                if self._buf_len >= self.flush_interval:
                    self.force_flush()
                return
        buf.append((seq, lba, ppn, 1))
        self._buf_len += 1
        if self._buf_len >= self.flush_interval:
            self.force_flush()

    def append_moves(self, seq, lbas, ppn) -> None:
        for i, lba in enumerate(lbas):
            self.append(seq + i, lba, ppn + i)


# Runs of consecutive LBAs with jumps between them: GC moves of a
# victim that holds both LOC extents and scattered SOC pages.  A run
# may be longer than any flush interval drawn below.
_LBA_RUNS = st.lists(
    st.tuples(st.integers(0, 400), st.integers(1, 30)), min_size=1, max_size=6
).map(lambda runs: [lba + i for lba, n in runs for i in range(n)])
_JOURNAL_STEP = st.one_of(
    st.tuples(st.just("moves"), _LBA_RUNS, st.integers(0, 3)),
    # GC moves whose first run continues the last entry's LBA (and
    # seq and ppn), so it extends the buffer's last run.
    st.tuples(
        st.just("continue"), st.tuples(st.integers(1, 30), _LBA_RUNS), st.just(0)
    ),
    st.tuples(st.just("move"), st.integers(0, 400), st.integers(0, 3)),
    st.tuples(st.just("run"), st.integers(0, 400), st.integers(1, 20)),
    st.tuples(st.just("trim"), st.integers(0, 400), st.just(0)),
    st.tuples(st.just("cut"), st.just(0), st.just(0)),
)


class TestJournalAndCheckpoint:
    @settings(max_examples=150, deadline=None)
    @given(
        interval=st.integers(1, 12),
        steps=st.lists(_JOURNAL_STEP, max_size=30),
    )
    def test_bulk_appends_equal_the_per_entry_loop(self, interval, steps):
        """Same runs, same buffered length, same flush boundaries —
        which entries a power cut loses is unchanged."""
        oracle, journal = _PerEntryJournal(interval), MappingJournal(interval)
        seq, ppn, last_lba = 1, 0, 0
        for kind, arg, extra in steps:
            entries = 1
            if kind == "continue":
                kind, (n, runs) = "moves", arg
                arg = [last_lba + 1 + i for i in range(n)] + runs
            for j in (oracle, journal):
                if kind == "moves":
                    # `extra` skips physical pages: a new write point.
                    # Production passes the LBAs as an intc array.
                    lbas = np.array(arg, dtype=np.intc) if j is journal else arg
                    j.append_moves(seq, lbas, ppn + extra)
                    entries = len(arg)
                elif kind == "move":
                    j.append(seq, arg, ppn + extra)
                elif kind == "run":
                    j.append_run(seq, arg, ppn, extra)
                    entries = extra
                elif kind == "trim":
                    j.append(seq, arg, -1)
                    j.force_flush()
                else:
                    j.drop_volatile()
                    entries = 0
            seq += entries
            ppn += entries + (extra if kind in ("moves", "move") else 0)
            if kind == "moves":
                last_lba = arg[-1]
            elif kind != "cut":
                last_lba = arg + entries - 1
            assert journal._buf == oracle._buf
            assert journal._buf_len == oracle._buf_len
            assert journal._flushed == oracle._flushed
            # Plain ints only: no numpy scalar leaks from an LBA array.
            assert {type(x) for run in journal._buf + journal._flushed for x in run} <= {int}
        assert journal.buffer == oracle.buffer
        assert journal.flushed == oracle.flushed

    def test_checkpoint_bounds_journal_replay(self):
        dev = tiny_device(
            checkpoint_interval_pages=32, journal_flush_interval=4
        )
        now = 0
        for lba in range(96):
            now = dev.write(lba, 1, now_ns=now)
        dev.power_cut()
        rec = dev.recover()
        assert rec.checkpoint_seq > 0
        # Replay covers only the post-checkpoint suffix.
        assert rec.journal_entries_replayed < 96
        assert rec.mappings_recovered == 96

    def test_trim_is_durable_immediately(self):
        dev = tiny_device()
        now = 0
        for lba in range(16):
            now = dev.write(lba, 1, now_ns=now)
        dev.deallocate(4, 4)
        dev.power_cut()  # cut right behind the TRIM
        dev.recover()
        dev.check_invariants()
        for lba in range(16):
            assert dev.is_mapped(lba) == (lba < 4 or lba >= 8)

    def test_trim_acts_as_write_barrier(self):
        # A TRIM's synchronous journal flush fences everything issued
        # before it: a later cut must not tear those earlier writes.
        dev = tiny_device(power_seed=1)
        now = 0
        acks = []
        for lba in range(8):
            now = dev.write(lba, 1, now_ns=now, payload=("pre", lba))
            acks.append(now)
        dev.deallocate(0)  # mapped LBA: journal flush = barrier
        report = dev.power_cut(acks[0])  # before every completion
        assert not report.torn_writes
        dev.recover()
        assert not dev.is_mapped(0)
        for lba in range(1, 8):
            assert dev.read_payload(lba) == [("pre", lba)]


class TestGcInterplay:
    def test_gc_erase_fences_inflight_writes(self):
        # Overwrite churn on a small span forces GC; the erase barrier
        # must prevent any cut from orphaning an overwritten LBA whose
        # old copy was collected.
        import random as _random

        dev = tiny_device(fdp=False, power_seed=9)
        now = 0
        order = _random.Random(5)
        # Interleave one-shot cold fills with hot overwrites so every
        # superblock holds a mix: victims always carry live pages and
        # GC has to migrate as well as erase.
        cold_next = 100
        version = {}
        history = {}
        issued = []  # (lba, value, prev_value)
        for i in range(900):
            if i % 2 == 0 and cold_next < 420:
                lba = cold_next
                cold_next += 1
            else:
                lba = order.randrange(0, 48)
            value = ("v", i)
            now = dev.write(lba, 1, now_ns=now, payload=value)
            issued.append((lba, value, version.get(lba)))
            version[lba] = value
        assert dev.stats.superblocks_erased > 0
        assert dev.stats.gc_pages_migrated > 0
        report = dev.power_cut(now - 1)
        # Torn commands are the suffix of issue order; revert newest
        # first so earlier prev-values land correctly.
        for k, t in enumerate(reversed(report.torn_writes)):
            lba, value, prev = issued[-1 - k]
            assert (t.lba, t.npages) == (lba, 1)
            if t.pages_durable == 0 and version.get(lba) == value:
                if prev is None:
                    version.pop(lba, None)
                else:
                    version[lba] = prev
        dev.recover()
        dev.check_invariants()
        for lba, value in version.items():
            assert dev.read_payload(lba) == [value], f"LBA {lba}"
        for lba in range(dev.capacity_pages):
            if lba not in version:
                assert not dev.is_mapped(lba)

    def test_recovery_reopens_write_points(self):
        dev = tiny_device()
        now = 0
        # Leave a superblock partially programmed.
        for lba in range(10):
            now = dev.write(lba, 1, now_ns=now)
        dev.power_cut()
        rec = dev.recover()
        assert rec.write_points_reopened
        # The reopened write point keeps accepting writes.
        for lba in range(10, 20):
            now = dev.write(lba, 1, now_ns=now)
        dev.check_invariants()


class TestRecoverEdgeCases:
    def test_recover_on_fresh_device_is_noop(self):
        dev = tiny_device()
        rec = dev.recover()
        assert rec.noop
        dev.check_invariants()

    def test_recover_on_live_device_preserves_mapping(self):
        dev = tiny_device()
        now = 0
        for lba in range(32):
            now = dev.write(lba, 1, now_ns=now, payload=lba)
        before = [dev.read_payload(lba) for lba in range(32)]
        dev.recover()  # no cut happened
        dev.check_invariants()
        assert [dev.read_payload(lba) for lba in range(32)] == before

    def test_format_after_recovery(self):
        dev = tiny_device()
        for lba in range(16):
            dev.write(lba)
        dev.power_cut()
        dev.recover()
        dev.format()
        dev.check_invariants()
        assert not any(dev.is_mapped(lba) for lba in range(16))


class TestHealthLogSatellite:
    def test_rated_pe_cycles_defaults_from_geometry(self):
        geometry = Geometry(
            pages_per_block=4,
            planes_per_die=1,
            dies=1,
            num_superblocks=8,
            rated_pe_cycles=1234,
        )
        dev = SimulatedSSD(geometry)
        assert dev.get_health_log().rated_pe_cycles == 1234
        assert dev.get_health_log(rated_pe_cycles=99).rated_pe_cycles == 99

    def test_rated_pe_cycles_validation(self):
        dev = tiny_device()
        with pytest.raises(ValueError):
            dev.get_health_log(rated_pe_cycles=0)
        with pytest.raises(ValueError):
            Geometry(
                pages_per_block=4,
                planes_per_die=1,
                dies=1,
                num_superblocks=8,
                rated_pe_cycles=0,
            )


def small_cache(device, **overrides):
    defaults = dict(
        dram_bytes=64 * 1024,
        soc_bytes=64 * 4096,
        loc_bytes=2 * 1024 * 1024,
        region_bytes=32 * 1024,
        small_item_threshold=2048,
        metadata_flush_interval=64,
    )
    defaults.update(overrides)
    return HybridCache(device, CacheConfig(**defaults))


def cache_device() -> SimulatedSSD:
    geometry = Geometry(
        page_size=4096,
        pages_per_block=8,
        planes_per_die=2,
        dies=2,
        num_superblocks=128,
        op_fraction=0.10,
    )
    return SimulatedSSD(geometry, fdp=True)


class TestWarmRestart:
    def populate(self, cache, n=400):
        for k in range(n):
            size = 6000 if k % 3 == 0 else 500
            cache.set(k, size)

    def test_hybrid_recover_counts_are_consistent(self):
        cache = small_cache(cache_device())
        self.populate(cache)
        cache.device.power_cut()
        report = cache.recover()
        assert report["items_recovered"] > 0
        assert (
            report["items_recovered"] + report["items_lost"]
            == report["items_before"]
        )
        assert "device" in report

    def test_no_phantom_hits_and_no_lost_recovered_items(self):
        cache = small_cache(cache_device())
        self.populate(cache)
        cache.device.power_cut()
        report = cache.recover()
        hits = sum(
            1
            for k in range(400)
            if cache.get(k).where != MISS
        )
        # Every recovered item hits; nothing else does.
        assert hits == report["items_recovered"]

    def test_cache_usable_after_recovery(self):
        cache = small_cache(cache_device())
        self.populate(cache, n=200)
        cache.device.power_cut()
        cache.recover()
        for k in range(1000, 1100):
            cache.set(k, 700)
        assert any(cache.get(k).where != MISS for k in range(1000, 1100))
        cache.device.check_invariants()

    def test_warm_restart_without_cut_keeps_flushed_items(self):
        # recover() on a live device models a planned restart: DRAM and
        # open buffers drop, flushed NVM content survives.
        cache = small_cache(cache_device())
        self.populate(cache, n=300)
        report = cache.recover()
        assert report["items_recovered"] > 0
        hits = sum(1 for k in range(300) if cache.get(k).where != MISS)
        assert hits == report["items_recovered"]

class TestCrashSoak:
    def test_soak_smoke(self):
        result = run_crash_soak(
            cycles=3,
            commands_per_cycle=40,
            span=256,
            seed=11,
        )
        assert result.acceptance, result.table()
        assert [row["cycle"] for row in result.rows] == [0, 1, 2]
        assert result.evidence["verified_cycles"] == result.params["cycles"] == 3
        assert result.evidence["power_cuts"] == 3
        assert result.evidence["final_mapped_pages"] >= 0
        assert result.evidence["final_dlwa"] >= 1.0

    def test_soak_validation(self):
        with pytest.raises(ValueError):
            run_crash_soak(cycles=0)
        with pytest.raises(ValueError):
            run_crash_soak(span=4)


# -- property test (satellite b) --------------------------------------

PROP_GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=4,
    planes_per_die=1,
    dies=2,
    num_superblocks=24,
    op_fraction=0.15,
)
PROP_LBAS = PROP_GEOMETRY.logical_pages

prop_step = st.tuples(
    st.sampled_from(["write", "trim", "cut", "recover"]),
    st.integers(min_value=0, max_value=PROP_LBAS - 1),
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=st.lists(prop_step, max_size=60),
    power_seed=st.integers(min_value=0, max_value=2**16),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    program_fail_rate=st.sampled_from([0.0, 0.01, 0.05]),
    erase_fail_rate=st.sampled_from([0.0, 0.02, 0.1]),
)
def test_arbitrary_fault_sequences_leave_device_formattable(
    steps, power_seed, fault_seed, program_fail_rate, erase_fail_rate
):
    """After any mix of writes, TRIMs, media faults, retirements, cuts,
    and recoveries, the device recovers to a consistent state, a format
    wipes it clean, and recovery on the formatted device is a no-op."""
    from repro.faults import FaultConfig
    from repro.ssd import DeviceFullError, MediaError

    dev = SimulatedSSD(
        PROP_GEOMETRY,
        fdp=True,
        power_seed=power_seed,
        checkpoint_interval_pages=16,
        journal_flush_interval=4,
        faults=FaultConfig(
            seed=fault_seed,
            program_fail_rate=program_fail_rate,
            erase_fail_rate=erase_fail_rate,
        ),
    )
    now = 0
    for op, lba in steps:
        try:
            if op == "write":
                now = dev.write(lba, 1, now_ns=now, payload=lba)
            elif op == "trim":
                dev.deallocate(lba)
            elif op == "cut":
                dev.power_cut(max(0, now - 1))
            else:
                dev.recover()
        except DeviceOfflineError:
            dev.recover()
        except (MediaError, DeviceFullError):
            pass  # retirement can exhaust a tiny device mid-sequence
    if dev.powered_off:
        dev.recover()
    dev.check_invariants()
    dev.format()
    dev.check_invariants()
    assert not any(dev.is_mapped(lba) for lba in range(PROP_LBAS))
    rec = dev.recover()
    assert rec.mappings_recovered == 0
    dev.check_invariants()


@settings(max_examples=10, deadline=None)
@given(power_seed=st.integers(min_value=0, max_value=2**16))
def test_recover_on_fresh_device_is_always_noop(power_seed):
    dev = SimulatedSSD(PROP_GEOMETRY, fdp=True, power_seed=power_seed)
    assert dev.recover().noop
    dev.check_invariants()
