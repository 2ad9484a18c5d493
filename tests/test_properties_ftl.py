"""Property-based tests for the FTL's core invariants."""

import random

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.fdp import PlacementIdentifier
from repro.ssd import Geometry, SimulatedSSD

SMALL_GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=4,
    planes_per_die=2,
    dies=2,
    num_superblocks=48,
    op_fraction=0.15,
)
N_LBAS = SMALL_GEOMETRY.logical_pages

# One trace step: (op, lba, ruh) with op in {write, trim, read}.
step = st.tuples(
    st.sampled_from(["write", "trim", "read"]),
    st.integers(min_value=0, max_value=N_LBAS - 1),
    st.integers(min_value=0, max_value=3),
)

common = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def replay(device, trace, use_pid):
    shadow = {}
    for op, lba, ruh in trace:
        if op == "write":
            pid = PlacementIdentifier(0, ruh) if use_pid else None
            device.write(lba, pid=pid)
            shadow[lba] = True
        elif op == "trim":
            device.deallocate(lba)
            shadow.pop(lba, None)
        else:
            mapped, _ = device.read(lba)
            assert mapped == (lba in shadow)
    return shadow


class TestMappingConsistency:
    @given(trace=st.lists(step, max_size=300))
    @common
    def test_conventional_matches_shadow_model(self, trace):
        device = SimulatedSSD(SMALL_GEOMETRY)
        shadow = replay(device, trace, use_pid=False)
        device.check_invariants()
        assert device.ftl.valid_page_total() == len(shadow)
        for lba in range(N_LBAS):
            mapped, _ = device.read(lba)
            assert mapped == (lba in shadow)

    @given(trace=st.lists(step, max_size=300))
    @common
    def test_fdp_matches_shadow_model(self, trace):
        device = SimulatedSSD(SMALL_GEOMETRY, fdp=True)
        shadow = replay(device, trace, use_pid=True)
        device.check_invariants()
        assert device.ftl.valid_page_total() == len(shadow)

    @given(
        trace=st.lists(step, max_size=300),
        heavy=st.lists(
            st.integers(min_value=0, max_value=N_LBAS - 1),
            min_size=200,
            max_size=600,
        ),
    )
    @common
    def test_invariants_survive_gc_pressure(self, trace, heavy):
        device = SimulatedSSD(SMALL_GEOMETRY, fdp=True)
        replay(device, trace, use_pid=True)
        # Extra write pressure to force GC repeatedly.
        for lba in heavy:
            device.write(lba, pid=PlacementIdentifier(0, 1))
        for lba in heavy:
            device.write(lba, pid=PlacementIdentifier(0, 2))
        device.check_invariants()


class TestAccountingProperties:
    @given(trace=st.lists(step, max_size=400))
    @common
    def test_dlwa_never_below_one(self, trace):
        device = SimulatedSSD(SMALL_GEOMETRY)
        replay(device, trace, use_pid=False)
        assert device.dlwa >= 1.0

    @given(trace=st.lists(step, max_size=400))
    @common
    def test_nand_writes_decompose(self, trace):
        device = SimulatedSSD(SMALL_GEOMETRY, fdp=True)
        replay(device, trace, use_pid=True)
        s = device.stats
        assert (
            s.nand_pages_written
            == s.host_pages_written + s.gc_pages_migrated
        )

    @given(trace=st.lists(step, max_size=400))
    @common
    def test_valid_pages_bounded_by_logical_space(self, trace):
        device = SimulatedSSD(SMALL_GEOMETRY)
        replay(device, trace, use_pid=False)
        assert 0 <= device.ftl.valid_page_total() <= N_LBAS

    @given(trace=st.lists(step, max_size=200))
    @common
    def test_log_page_consistent_with_stats(self, trace):
        device = SimulatedSSD(SMALL_GEOMETRY)
        replay(device, trace, use_pid=False)
        page = device.get_log_page()
        assert page.host_bytes_with_metadata == (
            device.stats.host_pages_written * 4096
        )
        assert page.dlwa == pytest.approx(device.dlwa)


# One GC-heavy step: write ``n`` pages from ``lba``, or trim them.
gc_step = st.tuples(
    st.sampled_from(["write", "write", "write", "trim"]),
    st.integers(min_value=0, max_value=N_LBAS - 1),
    st.integers(min_value=1, max_value=16),
)


def brute_force_victim(ftl):
    """The emptiest CLOSED superblock, the lowest-indexed of a tie."""
    return min(ftl._closed, key=lambda i: (ftl.superblocks[i].valid_pages, i))


def window_victim(ftl):
    """The sampled window's answer, replayed on a copy of its RNG: the
    emptiest superblock of the window, the first in window order of a
    tie (the window wraps, so that is not always the lowest index)."""
    closed = ftl._closed
    if len(closed) <= ftl.gc_victim_sample:
        return brute_force_victim(ftl)
    rng = random.Random()
    rng.setstate(ftl._victim_rng.getstate())
    start = rng.randrange(len(closed))
    window = (closed + closed)[start : start + ftl.gc_victim_sample]
    return min(
        window, key=lambda i: (ftl.superblocks[i].valid_pages, window.index(i))
    )


def check_every_selection(ftl, expected):
    """Compare every victim ``ftl`` selects, GC bursts included, with
    ``expected(ftl)`` taken just before; returns how many selections
    saw ``_zero_closed`` empty (False) and non-empty (True)."""
    select = ftl._select_victim
    seen = {False: 0, True: 0}

    def checked():
        want = expected(ftl) if ftl._closed else None
        seen[bool(ftl._zero_closed)] += 1
        got = select()
        assert (got.index if got is not None else None) == want
        return got

    ftl._select_victim = checked
    return seen


def replay_gc(device, trace):
    for op, lba, n in trace:
        n = min(n, N_LBAS - lba)
        if op == "write":
            device.write(lba, n)
        else:
            device.deallocate(lba, n)


class TestVictimSelection:
    @given(trace=st.lists(gc_step, max_size=300))
    @common
    def test_global_greedy_is_the_brute_force_minimum(self, trace):
        """Inside a GC burst (the burst's cached counts) and outside it
        (the scan), with and without a fully invalid CLOSED block."""
        device = SimulatedSSD(SMALL_GEOMETRY)
        ftl = device.ftl
        seen = check_every_selection(ftl, brute_force_victim)
        replay_gc(device, trace)
        if ftl._closed:
            ftl._select_victim()
            # Trim a CLOSED superblock's live pages: _zero_closed fills.
            pps = SMALL_GEOMETRY.pages_per_superblock
            block = ftl._closed[-1]
            for ppn in range(block * pps, (block + 1) * pps):
                lba = ftl._p2l[ppn]
                if lba >= 0 and ftl._l2p[lba] == ppn:
                    device.deallocate(lba)
            assert ftl._zero_closed
            ftl._select_victim()
        event(f"selections with _zero_closed empty: {bool(seen[False])}")
        device.check_invariants()

    @given(
        sample=st.integers(min_value=1, max_value=6),
        trace=st.lists(gc_step, max_size=300),
    )
    @common
    def test_sampled_window_keeps_its_answer(self, sample, trace):
        device = SimulatedSSD(SMALL_GEOMETRY, gc_victim_sample=sample)
        check_every_selection(device.ftl, window_victim)
        replay_gc(device, trace)
        device.check_invariants()
