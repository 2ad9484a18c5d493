"""Unit tests for device counters / DLWA accounting."""

import pytest

from repro.ssd import DeviceStats, SimulatedSSD


class TestDlwa:
    def test_dlwa_is_one_with_no_writes(self):
        assert DeviceStats().dlwa == 1.0

    def test_dlwa_ratio(self):
        s = DeviceStats()
        s.host_pages_written = 100
        s.nand_pages_written = 130
        assert s.dlwa == 1.3

    def test_dlwa_never_below_one_when_accounted(self):
        s = DeviceStats()
        s.host_pages_written = 10
        s.nand_pages_written = 10
        assert s.dlwa == 1.0


class TestSnapshot:
    def test_snapshot_is_frozen_copy(self):
        s = DeviceStats()
        s.host_pages_written = 5
        snap = s.snapshot()
        s.host_pages_written = 50
        assert snap.host_pages_written == 5
        assert type(snap) is DeviceStats and snap != s

    def test_interval_dlwa(self):
        s = DeviceStats()
        s.host_pages_written = 100
        s.nand_pages_written = 100
        first = s.snapshot()
        s.host_pages_written = 200
        s.nand_pages_written = 300
        second = s.snapshot()
        # Over the interval: 100 host pages, 200 NAND pages.
        assert second.interval_dlwa(first) == 2.0

    def test_interval_dlwa_with_no_traffic(self):
        s = DeviceStats()
        snap = s.snapshot()
        assert s.snapshot().interval_dlwa(snap) == 1.0

    def test_snapshot_dlwa_property(self):
        s = DeviceStats()
        s.host_pages_written = 4
        s.nand_pages_written = 6
        assert s.snapshot().dlwa == 1.5


class TestWriteLedger:
    def test_skewed_counter_trips_check_invariants(self, conventional_ssd):
        conventional_ssd.write(0, npages=4)
        conventional_ssd.check_invariants()
        conventional_ssd.stats.nand_pages_written += 1
        with pytest.raises(AssertionError, match="nand_pages_written"):
            conventional_ssd.check_invariants()

    def test_scrub_breakdown_must_sum_to_the_counter(self, small_geometry):
        ssd = SimulatedSSD(small_geometry, fdp=True, scrub=True)
        ssd.write(0, npages=4)
        ssd.check_invariants()
        ssd.ftl.scrubber.relocated_by_ruh[(0, 0)] = 1
        with pytest.raises(AssertionError, match="scrub relocations by RUH"):
            ssd.check_invariants()
