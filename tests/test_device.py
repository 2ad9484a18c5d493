"""Unit tests for the SimulatedSSD facade."""

import pytest

from repro.fdp import RuhType, default_configuration
from repro.ssd import OP_READ, OP_WRITE, BatchCommand, SimulatedSSD


class TestConstruction:
    def test_fdp_true_uses_paper_default(self, small_geometry):
        dev = SimulatedSSD(small_geometry, fdp=True)
        assert dev.fdp_enabled
        assert dev.fdp_config.num_ruhs == 8
        assert dev.fdp_config.reclaim_unit_bytes == small_geometry.superblock_bytes

    def test_fdp_false_is_conventional(self, small_geometry):
        dev = SimulatedSSD(small_geometry, fdp=False)
        assert not dev.fdp_enabled
        assert dev.fdp_config is None

    def test_explicit_config(self, small_geometry):
        cfg = default_configuration(
            small_geometry.superblock_bytes,
            num_ruhs=4,
            ruh_type=RuhType.PERSISTENTLY_ISOLATED,
        )
        dev = SimulatedSSD(small_geometry, fdp=cfg)
        assert dev.fdp_config.num_ruhs == 4

    def test_capacity_properties(self, small_geometry):
        dev = SimulatedSSD(small_geometry)
        assert dev.capacity_pages == small_geometry.logical_pages
        assert dev.capacity_bytes == small_geometry.logical_bytes
        assert dev.page_size == small_geometry.page_size


class TestLogPages:
    def test_log_page_tracks_bytes(self, conventional_ssd):
        conventional_ssd.write(0, npages=10)
        page = conventional_ssd.get_log_page()
        assert page.host_bytes_with_metadata == 10 * 4096
        assert page.media_bytes_written >= page.host_bytes_with_metadata

    def test_dlwa_property_matches_log(self, conventional_ssd):
        for _ in range(3):
            for lba in range(conventional_ssd.capacity_pages // 2):
                conventional_ssd.write(lba)
        assert conventional_ssd.dlwa == pytest.approx(
            conventional_ssd.get_log_page().dlwa
        )

    def test_snapshot_interval(self, conventional_ssd):
        conventional_ssd.write(0, npages=4)
        snap = conventional_ssd.snapshot()
        conventional_ssd.write(4, npages=4)
        assert conventional_ssd.snapshot().interval_dlwa(snap) == 1.0


class TestFormat:
    def test_format_resets_counters_and_mapping(self, conventional_ssd):
        conventional_ssd.write(0, npages=32)
        conventional_ssd.format()
        assert conventional_ssd.stats.host_pages_written == 0
        mapped, _ = conventional_ssd.read(0)
        assert not mapped

    def test_format_resets_events(self, fdp_ssd):
        n = fdp_ssd.geometry.pages_per_superblock
        for lba in range(n):
            fdp_ssd.write(lba)
        assert fdp_ssd.events.recent()
        fdp_ssd.format()
        assert not fdp_ssd.events.recent()


class TestEnergyReporting:
    def test_energy_positive_after_traffic(self, conventional_ssd):
        conventional_ssd.write(0, npages=64)
        assert conventional_ssd.energy_kwh() > 0.0

    def test_energy_includes_idle_floor(self, conventional_ssd):
        conventional_ssd.write(0)
        busy_only = conventional_ssd.energy_kwh()
        with_idle = conventional_ssd.energy_kwh(elapsed_ns=10**12)
        assert with_idle > busy_only

    def test_read_rejects_zero_pages(self, conventional_ssd):
        with pytest.raises(ValueError):
            conventional_ssd.read(0, npages=0)


class TestSubmitBatch:
    def test_batch_equals_the_standalone_calls(self, small_geometry, pid_a):
        batched = SimulatedSSD(small_geometry, fdp=True)
        single = SimulatedSSD(small_geometry, fdp=True)
        commands = [
            BatchCommand(OP_WRITE, 0, 8, pid_a, "p0"),
            ("write", 4, 2),
            BatchCommand(OP_READ, 0, 8),
            ("trim", 2, 3),
            ("read", 40),
        ]
        results = batched.submit_batch(commands, now_ns=1000)
        assert results == [
            single.write(0, 8, pid_a, 1000, "p0"),
            single.write(4, 2, None, 1000),
            single.read(0, 8, 1000),
            single.deallocate(2, 3),
            single.read(40, 1, 1000),
        ]
        assert results[3] == 3 and results[4][0] is False
        assert batched.read_payload(0, 8) == single.read_payload(0, 8)
        assert batched.snapshot() == single.snapshot()

    def test_bad_command_rejected(self, conventional_ssd):
        with pytest.raises(ValueError):
            conventional_ssd.submit_batch([("erase", 0)])
