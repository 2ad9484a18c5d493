"""Unit tests for repro.fdp: RUHs, PIDs, configurations, events, logs."""

import pytest

from repro.fdp import (
    PLACEMENT_PROPOSALS,
    FdpConfiguration,
    FdpEvent,
    FdpEventLog,
    FdpEventType,
    FdpStatisticsLogPage,
    PlacementIdentifier,
    RuhDescriptor,
    RuhType,
    default_configuration,
)


class TestPlacementIdentifier:
    def test_dspec_roundtrip(self):
        pid = PlacementIdentifier(reclaim_group=2, ruh_id=5)
        dspec = pid.dspec(num_ruhs=8)
        assert PlacementIdentifier.from_dspec(dspec, 8) == pid

    def test_dspec_roundtrip_exhaustive(self):
        for rg in range(3):
            for ruh in range(8):
                pid = PlacementIdentifier(rg, ruh)
                assert PlacementIdentifier.from_dspec(pid.dspec(8), 8) == pid

    def test_dspec_rejects_out_of_range_ruh(self):
        with pytest.raises(ValueError):
            PlacementIdentifier(0, 8).dspec(num_ruhs=8)

    def test_from_dspec_rejects_negative(self):
        with pytest.raises(ValueError):
            PlacementIdentifier.from_dspec(-1, 8)

    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            PlacementIdentifier(-1, 0)
        with pytest.raises(ValueError):
            PlacementIdentifier(0, -1)

    def test_ordering_is_stable(self):
        pids = [PlacementIdentifier(1, 0), PlacementIdentifier(0, 1)]
        assert sorted(pids)[0] == PlacementIdentifier(0, 1)


class TestConfiguration:
    def test_default_configuration_matches_paper_device(self):
        cfg = default_configuration(6 * 1024**3)
        assert cfg.num_ruhs == 8
        assert cfg.num_reclaim_groups == 1
        assert all(
            r.ruh_type is RuhType.INITIALLY_ISOLATED for r in cfg.ruhs
        )

    def test_placement_identifiers_cover_grid(self):
        cfg = default_configuration(1024, num_ruhs=4, num_reclaim_groups=2)
        pids = cfg.placement_identifiers()
        assert len(pids) == 8
        assert len(set(pids)) == 8

    def test_validate_pid(self):
        cfg = default_configuration(1024, num_ruhs=4)
        cfg.validate_pid(PlacementIdentifier(0, 3))
        with pytest.raises(ValueError):
            cfg.validate_pid(PlacementIdentifier(0, 4))
        with pytest.raises(ValueError):
            cfg.validate_pid(PlacementIdentifier(1, 0))

    def test_ruh_lookup(self):
        cfg = default_configuration(1024, num_ruhs=2)
        assert cfg.ruh(1).ruh_id == 1
        with pytest.raises(ValueError):
            cfg.ruh(2)

    def test_rejects_sparse_ruh_ids(self):
        with pytest.raises(ValueError):
            FdpConfiguration(
                ruhs=(
                    RuhDescriptor(0, RuhType.INITIALLY_ISOLATED),
                    RuhDescriptor(2, RuhType.INITIALLY_ISOLATED),
                ),
                num_reclaim_groups=1,
                reclaim_unit_bytes=1024,
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FdpConfiguration(ruhs=(), num_reclaim_groups=1, reclaim_unit_bytes=1)

    def test_table1_has_four_proposals(self):
        names = [p.name for p in PLACEMENT_PROPOSALS]
        assert names == ["Streams", "Open-Channel", "ZNS", "FDP"]
        fdp = PLACEMENT_PROPOSALS[-1]
        assert fdp.runs_unchanged_apps and not fdp.host_manages_nand


class TestEventLog:
    def test_counts_accumulate(self):
        log = FdpEventLog()
        for i in range(5):
            log.record(FdpEvent(FdpEventType.MEDIA_RELOCATED, i, pages=2))
        assert log.media_relocated_events == 5
        assert log.media_relocated_pages == 10

    def test_counts_survive_ring_overflow(self):
        log = FdpEventLog(capacity=4)
        for i in range(100):
            log.record(FdpEvent(FdpEventType.RU_SWITCHED, i))
        assert log.count(FdpEventType.RU_SWITCHED) == 100
        assert len(log.recent()) == 4

    def test_recent_n(self):
        log = FdpEventLog()
        for i in range(10):
            log.record(FdpEvent(FdpEventType.RU_SWITCHED, i))
        assert len(log.recent(3)) == 3
        assert log.recent(3)[-1].timestamp_ns == 9
        assert log.recent(0) == []

    def test_recent_rejects_negative(self):
        with pytest.raises(ValueError):
            FdpEventLog().recent(-1)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            FdpEventLog(capacity=0)


class TestStatisticsLogPage:
    def test_dlwa(self):
        page = FdpStatisticsLogPage(
            host_bytes_with_metadata=100,
            media_bytes_written=130,
            media_bytes_read_for_gc=30,
        )
        assert page.dlwa == 1.3

    def test_dlwa_no_traffic(self):
        page = FdpStatisticsLogPage(0, 0, 0)
        assert page.dlwa == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FdpStatisticsLogPage(-1, 0, 0)
