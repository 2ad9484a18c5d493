"""Unit tests for the FTL: mapping, GC, trim, placement streams."""

import pickle

import pytest

from repro.fdp import FdpEventType, PlacementIdentifier
from repro.ssd import (
    DeviceFullError,
    Geometry,
    InvalidPlacementError,
    OutOfRangeError,
    SimulatedSSD,
)
from repro.ssd.superblock import SuperblockState


def fill_sequential(dev, start, count, pid=None):
    for lba in range(start, start + count):
        dev.write(lba, pid=pid)


class TestBasicMapping:
    def test_read_unwritten_lba_is_unmapped(self, conventional_ssd):
        mapped, _ = conventional_ssd.read(0)
        assert not mapped

    def test_read_after_write_is_mapped(self, conventional_ssd):
        conventional_ssd.write(7)
        mapped, _ = conventional_ssd.read(7)
        assert mapped

    def test_write_out_of_range(self, conventional_ssd):
        with pytest.raises(OutOfRangeError):
            conventional_ssd.write(conventional_ssd.capacity_pages)

    def test_read_out_of_range(self, conventional_ssd):
        with pytest.raises(OutOfRangeError):
            conventional_ssd.read(-1)

    def test_pickled_copy_maps_through_its_own_tables(self, conventional_ssd):
        """The FTL's numpy views of L2P/P2L are rebuilt over the copy's
        arrays, not pickled as detached snapshots; recovery refills the
        arrays in place, so the views survive it too."""
        conventional_ssd.write(0, npages=40)
        clone = pickle.loads(pickle.dumps(conventional_ssd))
        for dev in (conventional_ssd, clone):
            dev.write(8, npages=24)  # multi-page: goes through the views
            dev.power_cut()
            dev.recover()
            dev.write(16, npages=8)
            dev.check_invariants()
            ftl = dev.ftl
            assert ftl._l2p_np.tolist() == ftl._l2p.tolist()
            assert ftl._p2l_np.tolist() == ftl._p2l.tolist()
        assert clone.ftl._l2p == conventional_ssd.ftl._l2p

    def test_write_range_multi_page(self, conventional_ssd):
        conventional_ssd.write(10, npages=5)
        for lba in range(10, 15):
            mapped, _ = conventional_ssd.read(lba)
            assert mapped

    def test_write_range_rejects_zero_pages(self, conventional_ssd):
        with pytest.raises(ValueError):
            conventional_ssd.write(0, npages=0)

    def test_overwrite_keeps_single_mapping(self, conventional_ssd):
        conventional_ssd.write(3)
        conventional_ssd.write(3)
        conventional_ssd.check_invariants()
        assert conventional_ssd.ftl.valid_page_total() == 1

    def test_invariants_after_mixed_traffic(self, conventional_ssd):
        fill_sequential(conventional_ssd, 0, 200)
        for lba in range(0, 200, 3):
            conventional_ssd.write(lba)
        conventional_ssd.check_invariants()


class TestTrim:
    def test_deallocate_unmaps(self, conventional_ssd):
        conventional_ssd.write(5)
        n = conventional_ssd.deallocate(5)
        assert n == 1
        mapped, _ = conventional_ssd.read(5)
        assert not mapped

    def test_deallocate_range_counts_only_mapped(self, conventional_ssd):
        conventional_ssd.write(10)
        conventional_ssd.write(12)
        assert conventional_ssd.deallocate(10, 4) == 2

    def test_deallocate_is_idempotent(self, conventional_ssd):
        conventional_ssd.write(1)
        assert conventional_ssd.deallocate(1) == 1
        assert conventional_ssd.deallocate(1) == 0

    def test_deallocate_reduces_valid_count(self, conventional_ssd):
        fill_sequential(conventional_ssd, 0, 50)
        conventional_ssd.deallocate(0, 50)
        assert conventional_ssd.ftl.valid_page_total() == 0
        conventional_ssd.check_invariants()

    def test_deallocate_out_of_range(self, conventional_ssd):
        with pytest.raises(OutOfRangeError):
            conventional_ssd.deallocate(conventional_ssd.capacity_pages - 1, 5)

    def test_deallocate_rejects_zero_pages(self, conventional_ssd):
        with pytest.raises(ValueError):
            conventional_ssd.deallocate(0, 0)


class TestGarbageCollection:
    def test_sequential_overwrite_has_unit_dlwa(self, conventional_ssd):
        n = conventional_ssd.capacity_pages // 2
        for _ in range(6):
            fill_sequential(conventional_ssd, 0, n)
        conventional_ssd.check_invariants()
        # Pure sequential wrap: every GC victim is fully invalid.
        assert conventional_ssd.dlwa < 1.02

    def test_random_full_span_overwrite_amplifies(self, small_geometry):
        import random

        dev = SimulatedSSD(small_geometry)
        rng = random.Random(7)
        n = dev.capacity_pages
        fill_sequential(dev, 0, n)
        for _ in range(4 * n):
            dev.write(rng.randrange(n))
        dev.check_invariants()
        assert dev.dlwa > 1.5  # no spare space -> real write amp

    def test_gc_erases_and_reuses_superblocks(self, conventional_ssd):
        n = conventional_ssd.capacity_pages
        for _ in range(3):
            fill_sequential(conventional_ssd, 0, n)
        assert conventional_ssd.stats.superblocks_erased > 0
        census = conventional_ssd.ftl.superblock_census()
        assert census[SuperblockState.FREE.value] >= 1

    def test_gc_records_relocation_events(self, small_geometry):
        import random

        dev = SimulatedSSD(small_geometry)
        rng = random.Random(9)
        n = dev.capacity_pages
        fill_sequential(dev, 0, n)
        for _ in range(2 * n):
            dev.write(rng.randrange(n))
        assert dev.events.media_relocated_events > 0
        assert dev.events.media_relocated_pages >= dev.events.media_relocated_events

    def test_nand_writes_include_migrations(self, small_geometry):
        import random

        dev = SimulatedSSD(small_geometry)
        rng = random.Random(11)
        n = dev.capacity_pages
        fill_sequential(dev, 0, n)
        for _ in range(2 * n):
            dev.write(rng.randrange(n))
        s = dev.stats
        assert s.nand_pages_written == s.host_pages_written + s.gc_pages_migrated

    def test_device_full_when_everything_valid_and_no_op(self):
        # A device with 0 OP whose whole LBA space stays valid cannot
        # reclaim anything once free superblocks run out.
        g = Geometry(
            pages_per_block=4,
            planes_per_die=1,
            dies=1,
            num_superblocks=8,
            op_fraction=0.0,
        )
        dev = SimulatedSSD(g, gc_reserve_superblocks=2)
        with pytest.raises(DeviceFullError):
            # Write each LBA once; the last superblocks cannot be
            # allocated because nothing is invalid.
            fill_sequential(dev, 0, dev.capacity_pages)
            # Keep the pressure up in case the first pass squeaked by.
            for _ in range(4):
                fill_sequential(dev, 0, dev.capacity_pages)


class TestPlacementStreams:
    def test_conventional_ignores_pid(self, conventional_ssd, pid_a):
        # Backward compatibility: directives are accepted but ignored.
        conventional_ssd.write(0, pid=pid_a)
        conventional_ssd.check_invariants()

    def test_fdp_validates_pid(self, fdp_ssd):
        with pytest.raises(InvalidPlacementError):
            fdp_ssd.write(0, pid=PlacementIdentifier(0, 99))

    def test_invalid_pid_logs_event(self, fdp_ssd):
        try:
            fdp_ssd.write(0, pid=PlacementIdentifier(5, 0))
        except InvalidPlacementError:
            pass
        assert fdp_ssd.events.count(FdpEventType.INVALID_PLACEMENT_ID) == 1

    def test_streams_land_in_disjoint_superblocks(self, fdp_ssd, pid_a, pid_b):
        pps = fdp_ssd.geometry.pages_per_superblock
        for lba in range(0, 3 * pps, 2):
            fdp_ssd.write(lba, pid=pid_a)
            fdp_ssd.write(lba + 1, pid=pid_b)
        streams = {
            sb.stream
            for sb in fdp_ssd.ftl.superblocks
            if sb.state is not SuperblockState.FREE and sb.valid_pages
        }
        # Each non-free superblock was written by exactly one stream.
        assert ("host", 0, pid_a.ruh_id) in streams
        assert ("host", 0, pid_b.ruh_id) in streams

    def test_default_ruh_when_no_directive(self, fdp_ssd):
        fdp_ssd.write(0)
        streams = {
            sb.stream
            for sb in fdp_ssd.ftl.superblocks
            if sb.state is SuperblockState.OPEN
        }
        assert ("host", 0, 0) in streams

    def test_ru_switch_event_on_superblock_fill(self, fdp_ssd, pid_a):
        pps = fdp_ssd.geometry.pages_per_superblock
        fill_sequential(fdp_ssd, 0, pps, pid=pid_a)
        assert fdp_ssd.events.count(FdpEventType.RU_SWITCHED) >= 1

    def test_per_stream_host_page_accounting(self, fdp_ssd, pid_a, pid_b):
        for lba in range(10):
            fdp_ssd.write(lba, pid=pid_a)
        for lba in range(10, 14):
            fdp_ssd.write(lba, pid=pid_b)
        pages = fdp_ssd.ftl.stream_host_pages
        assert pages[("host", 0, pid_a.ruh_id)] == 10
        assert pages[("host", 0, pid_b.ruh_id)] == 4


class TestIsolationSemantics:
    def _mixed_hot_cold(self, dev, pid_hot, pid_cold, rounds=40000):
        import random

        rng = random.Random(3)
        n = dev.capacity_pages
        hot = max(8, n // 20)
        cold_lo = hot
        pos = cold_lo
        for _ in range(rounds):
            if rng.random() < 0.5:
                dev.write(rng.randrange(hot), pid=pid_hot)
            else:
                dev.write(pos, pid=pid_cold)
                pos += 1
                if pos >= n:
                    pos = cold_lo
        return dev

    def test_fdp_segregation_beats_conventional(
        self, small_geometry, pid_a, pid_b
    ):
        conv = self._mixed_hot_cold(
            SimulatedSSD(small_geometry), None, None
        )
        fdp = self._mixed_hot_cold(
            SimulatedSSD(small_geometry, fdp=True), pid_a, pid_b
        )
        conv.check_invariants()
        fdp.check_invariants()
        assert fdp.dlwa <= conv.dlwa
        assert fdp.dlwa < 1.25

    def test_persistently_isolated_gc_keeps_streams_apart(
        self, persistent_fdp_ssd, pid_a, pid_b
    ):
        dev = self._mixed_hot_cold(persistent_fdp_ssd, pid_a, pid_b)
        dev.check_invariants()
        # After GC, no superblock may hold a GC stream that merged RUHs:
        # persistent GC streams carry the originating ruh id.
        for sb in dev.ftl.superblocks:
            if sb.stream is not None and sb.stream[0] == "gc":
                assert sb.stream[2] in (pid_a.ruh_id, pid_b.ruh_id)

    def test_initially_isolated_gc_uses_shared_stream(
        self, fdp_ssd, pid_a, pid_b
    ):
        dev = self._mixed_hot_cold(fdp_ssd, pid_a, pid_b)
        gc_streams = {
            sb.stream
            for sb in dev.ftl.superblocks
            if sb.stream is not None and sb.stream[0] == "gc"
        }
        # Initially isolated handles share one GC destination per RG.
        assert gc_streams <= {("gc", 0, None)}
