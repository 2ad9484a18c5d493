"""Unit tests for the latency and energy models."""

import pytest

from repro.ssd import DeviceStats, EnergyCosts, LatencyModel, NandTimings
from repro.ssd.latency import (
    ERASE,
    GC_MIGRATE,
    READ,
    SCRUB_RELOCATE,
    SCRUB_SCAN,
    WRITE,
)


class TestLatencyModel:
    def test_idle_device_serves_immediately(self):
        m = LatencyModel(NandTimings(read_ns=100, transfer_ns=0))
        assert m.service(1000, READ) == 1100

    def test_busy_device_queues(self):
        m = LatencyModel(NandTimings(read_ns=100, program_ns=500, transfer_ns=0))
        first = m.service(0, WRITE)
        assert first == 500
        # A read arriving at t=0 waits for the write to finish.
        assert m.service(0, READ) == 600

    def test_gc_migration_occupies_timeline(self):
        t = NandTimings(
            read_ns=100, program_ns=500, transfer_ns=0, parallelism=1
        )
        m = LatencyModel(t)
        m.service(0, GC_MIGRATE, npages=3)
        assert m.busy_until == 3 * 600
        # Host op queues behind the migration burst.
        assert m.service(0, READ) == 3 * 600 + 100

    def test_gc_migration_stripes_across_parallelism(self):
        t = NandTimings(
            read_ns=100, program_ns=500, transfer_ns=0, parallelism=4
        )
        m = LatencyModel(t)
        m.service(0, GC_MIGRATE, npages=8)
        assert m.busy_until == 8 * 600 // 4

    def test_striping_floors_at_one_page(self):
        t = NandTimings(read_ns=100, transfer_ns=0, parallelism=16)
        m = LatencyModel(t)
        assert m.service(0, READ, npages=2) == 100  # never below 1 page

    def test_parallelism_validation(self):
        with pytest.raises(ValueError):
            NandTimings(parallelism=0)

    def test_gc_migrate_zero_pages_is_noop(self):
        m = LatencyModel()
        before = m.service(0, READ)
        for kind in (GC_MIGRATE, SCRUB_SCAN, SCRUB_RELOCATE):
            assert m.service(0, kind, 0) == before
            assert m.service(before + 5, kind, 0) == before + 5
        assert (m.busy_until, m.busy_ns_total) == (before, before)

    def test_erase_occupies_timeline(self):
        t = NandTimings(erase_ns=1000)
        m = LatencyModel(t)
        assert m.service(0, ERASE) == 1000
        assert m.service(0, ERASE, 64) == 2000  # one fixed cost

    def test_multi_page_host_ops_scale(self):
        t = NandTimings(program_ns=100, transfer_ns=10, parallelism=1)
        m = LatencyModel(t)
        assert m.service(0, WRITE, npages=4) == 4 * 110

    def test_busy_total_accumulates(self):
        t = NandTimings(read_ns=100, transfer_ns=0)
        m = LatencyModel(t)
        m.service(0, READ)
        m.service(10_000, READ)  # idle gap does not count as busy
        assert m.busy_ns_total == 200

    def test_rejects_negative_timings(self):
        with pytest.raises(ValueError):
            NandTimings(read_ns=-1)


class TestEnergyCosts:
    def test_active_energy_sums_ops(self):
        costs = EnergyCosts(read_uj=1.0, program_uj=2.0, erase_uj=10.0, idle_watts=0.0)
        # Reads: host 1 + GC 1 + soft-decode retry 0 + scrub scan 1 = 3;
        # programs: 2 NAND pages; erases: 1 superblock of 1 block.
        stats = DeviceStats(
            host_pages_read=1,
            gc_pages_read=1,
            scrub_pages_scanned=1,
            nand_pages_written=2,
            superblocks_erased=1,
        )
        assert costs.joules(stats, 1, 0, 0) == pytest.approx((3 + 4 + 10) * 1e-6)

    def test_every_counted_op_is_priced(self):
        costs = EnergyCosts(read_uj=1.0, program_uj=2.0, erase_uj=10.0, idle_watts=0.0)
        stats = DeviceStats(soft_decode_retries=3, erase_failures=1)
        # A failed erase still pulses all 4 blocks of the superblock.
        assert costs.joules(stats, 4, 0, 0) == pytest.approx((3 + 40) * 1e-6)

    def test_idle_energy(self):
        costs = EnergyCosts(idle_watts=2.0)
        # 1 second total, 0.25 s busy -> 0.75 s idle at 2 W = 1.5 J.
        joules = costs.joules(DeviceStats(), 1, 1_000_000_000, 250_000_000)
        assert joules == pytest.approx(1.5)

    def test_idle_energy_clamps_negative(self):
        costs = EnergyCosts(idle_watts=1.0)
        assert costs.joules(DeviceStats(), 1, 100, 500) == 0.0

    def test_total_energy_kwh_conversion(self, conventional_ssd):
        # A fresh device idle for 1000 s at the default 5 W: 5000 J.
        kwh = conventional_ssd.energy_kwh(elapsed_ns=1_000_000_000_000)
        assert kwh == pytest.approx(5000 / 3.6e6)

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            EnergyCosts(program_uj=-1)
