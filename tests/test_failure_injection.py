"""Failure-injection and edge-condition tests across the stack."""

import pytest

from repro.cache import CacheConfig, CacheItem, HybridCache
from repro.core import FdpAwareDevice
from repro.faults import (
    FaultConfig,
    FaultModel,
    ProgramFailError,
    ScriptedFault,
    UncorrectableReadError,
)
from repro.fdp import PlacementIdentifier
from repro.ssd import (
    DeviceFullError,
    Geometry,
    InvalidPlacementError,
    SimulatedSSD,
    SuperblockState,
)


class TestDeviceExhaustion:
    def test_zero_op_device_fills_and_raises(self):
        g = Geometry(
            pages_per_block=4,
            planes_per_die=1,
            dies=1,
            num_superblocks=8,
            op_fraction=0.0,
        )
        dev = SimulatedSSD(g, gc_reserve_superblocks=2)
        with pytest.raises(DeviceFullError):
            for _ in range(5):
                for lba in range(dev.capacity_pages):
                    dev.write(lba)

    def test_device_stays_consistent_after_full_error(self):
        g = Geometry(
            pages_per_block=4,
            planes_per_die=1,
            dies=1,
            num_superblocks=8,
            op_fraction=0.0,
        )
        dev = SimulatedSSD(g, gc_reserve_superblocks=2)
        try:
            for _ in range(5):
                for lba in range(dev.capacity_pages):
                    dev.write(lba)
        except DeviceFullError:
            pass
        # Reads still answer and the mapping is still coherent.
        dev.check_invariants()
        mapped, _ = dev.read(0)
        assert isinstance(mapped, bool)

    def test_trim_recovers_full_device(self):
        g = Geometry(
            pages_per_block=4,
            planes_per_die=1,
            dies=1,
            num_superblocks=8,
            op_fraction=0.0,
        )
        dev = SimulatedSSD(g, gc_reserve_superblocks=2)
        try:
            for _ in range(5):
                for lba in range(dev.capacity_pages):
                    dev.write(lba)
        except DeviceFullError:
            pass
        dev.deallocate(0, dev.capacity_pages)
        # After a full TRIM, writes proceed again.
        for lba in range(dev.capacity_pages // 2):
            dev.write(lba)
        dev.check_invariants()


class TestBadPlacement:
    def test_invalid_pid_does_not_corrupt_state(self, fdp_ssd):
        fdp_ssd.write(0)
        with pytest.raises(InvalidPlacementError):
            fdp_ssd.write(1, pid=PlacementIdentifier(0, 42))
        fdp_ssd.check_invariants()
        # LBA 1 was never written.
        mapped, _ = fdp_ssd.read(1)
        assert not mapped

    def test_cache_survives_allocator_exhaustion(self, small_geometry):
        # Device with only 2 RUHs: after the reserve, one bindable PID.
        from repro.fdp import default_configuration

        config = default_configuration(
            small_geometry.superblock_bytes, num_ruhs=2
        )
        device = SimulatedSSD(small_geometry, fdp=config)
        cache = HybridCache(
            device,
            CacheConfig(
                dram_bytes=64 * 1024,
                soc_bytes=64 * 4096,
                loc_bytes=1024 * 1024,
                region_bytes=32 * 1024,
            ),
        )
        # SOC got the one real handle; LOC fell back to default.
        assert not cache.soc.handle.is_default
        assert cache.loc.handle.is_default
        assert cache.io.allocator.exhausted_allocations == 1
        for k in range(500):
            cache.set(k, 500)
        device.check_invariants()


class TestCacheEdgeCases:
    @pytest.fixture
    def cache(self, fdp_ssd):
        return HybridCache(
            fdp_ssd,
            CacheConfig(
                dram_bytes=64 * 1024,
                soc_bytes=64 * 4096,
                loc_bytes=2 * 1024 * 1024,
                region_bytes=32 * 1024,
            ),
        )

    def test_item_bigger_than_region_is_dropped(self, cache):
        huge = cache.loc.region_bytes + 5000
        cache.set(1, huge)
        for k in range(2, 100):
            cache.set(k, 500)
        # The oversized item silently fails flash admission (too big
        # for any engine), as in CacheLib.
        assert not cache.loc.contains(1)
        assert not cache.soc.contains(1)

    def test_item_at_soc_threshold_boundary(self, cache):
        threshold = cache.config.small_item_threshold
        cache.set(1, threshold)      # exactly small
        cache.set(2, threshold + 1)  # just large
        for k in range(3, 200):
            cache.set(k, 500)
        assert cache.soc.contains(1)
        assert cache.loc.contains(2)

    def test_zero_size_item_rejected(self, cache):
        with pytest.raises(ValueError):
            cache.set(1, 0)

    def test_delete_of_absent_key(self, cache):
        cache.delete(424242)  # must not raise
        assert cache.deletes == 1

    def test_get_after_massive_churn_remains_consistent(self, cache):
        for round_ in range(3):
            for k in range(600):
                cache.set(k + round_ * 300, 700)
        cache.device.check_invariants()
        found = sum(
            1 for k in range(1200) if cache.get(k).hit
        )
        assert found > 0

    def test_same_key_alternating_sizes(self, cache):
        # A key that flips between small and large must never be
        # resident in both engines at once.
        for i in range(40):
            size = 500 if i % 2 == 0 else 8000
            cache.set(1, size)
            for k in range(100, 160):
                cache.set(k, 600)
            in_soc = cache.soc.contains(1)
            in_loc = cache.loc.contains(1)
            assert not (in_soc and in_loc)


class TestDeterminism:
    def test_full_stack_is_deterministic(self, small_geometry):
        def run():
            device = SimulatedSSD(small_geometry, fdp=True)
            cache = HybridCache(
                device,
                CacheConfig(
                    dram_bytes=64 * 1024,
                    soc_bytes=64 * 4096,
                    loc_bytes=2 * 1024 * 1024,
                    region_bytes=32 * 1024,
                ),
            )
            import random

            rng = random.Random(11)
            for _ in range(4000):
                k = rng.randrange(2000)
                if rng.random() < 0.5:
                    cache.get(k)
                else:
                    cache.set(k, rng.choice((300, 700, 9000)))
            return (
                device.stats.host_pages_written,
                device.stats.nand_pages_written,
                cache.hit_ratio,
            )

        assert run() == run()


class TestNpagesValidation:
    """write/read/deallocate reject non-positive npages uniformly."""

    @pytest.mark.parametrize("npages", [0, -1, -17])
    @pytest.mark.parametrize("op", ["write", "read", "deallocate"])
    def test_non_positive_npages_raises(self, fdp_ssd, op, npages):
        with pytest.raises(ValueError):
            getattr(fdp_ssd, op)(0, npages)


def _churn(device, rng, ops=3000, keyspace=None):
    """A deterministic write/read/trim mix that forces GC on a small
    device; returns nothing, mutates the device."""
    span = keyspace or device.capacity_pages
    for _ in range(ops):
        lba = rng.randrange(span)
        npages = min(1 + rng.randrange(4), span - lba)
        roll = rng.random()
        try:
            if roll < 0.70:
                device.write(lba, npages)
            elif roll < 0.95:
                device.read(lba)
            else:
                device.deallocate(lba, npages)
        except (UncorrectableReadError, ProgramFailError):
            pass  # injected; the device must stay consistent regardless
        except DeviceFullError:
            # Heavy erase failures can retire the whole spare; later
            # TRIMs may free space again, so keep churning.
            pass


class TestFaultDeterminism:
    def test_same_seed_same_fault_history(self, tiny_geometry):
        import random

        config = FaultConfig(
            seed=7,
            read_uecc_rate=0.01,
            program_fail_rate=0.01,
            erase_fail_rate=0.05,
            latency_spike_rate=0.01,
        )

        def run():
            device = SimulatedSSD(tiny_geometry, fdp=True, faults=config)
            _churn(device, random.Random(3))
            health = device.get_health_log()
            return health, device.stats.nand_pages_written

        assert run() == run()

    def test_fault_classes_draw_independent_streams(self):
        # The read stream's decisions must not move when another fault
        # class is switched on: each class owns a salted RNG.
        only_reads = FaultModel(FaultConfig(seed=5, read_uecc_rate=0.3))
        with_programs = FaultModel(
            FaultConfig(seed=5, read_uecc_rate=0.3, program_fail_rate=0.5)
        )
        reads_a, reads_b = [], []
        for i in range(500):
            reads_a.append(only_reads.fail_read(i))
            with_programs.fail_program(i)  # interleave the other class
            reads_b.append(with_programs.fail_read(i))
        assert reads_a == reads_b

    def test_scripted_plan_does_not_perturb_probabilistic_rolls(self):
        plain = FaultModel(FaultConfig(seed=9, read_uecc_rate=0.2))
        scripted = FaultModel(
            FaultConfig(
                seed=9,
                read_uecc_rate=0.2,
                plan=(ScriptedFault(op="read", op_index=3),),
            )
        )
        decisions_plain = [plain.fail_read(i) for i in range(200)]
        decisions_scripted = [scripted.fail_read(i) for i in range(200)]
        # Exactly the scripted extra at index 2; every probabilistic
        # outcome after it is unchanged (the plan consumed no RNG draw).
        assert decisions_scripted[2] is True
        diffs = [
            i
            for i, (a, b) in enumerate(
                zip(decisions_plain, decisions_scripted)
            )
            if a != b
        ]
        assert diffs in ([], [2])

    def test_disabled_faults_bit_identical_to_no_faults(self, small_geometry):
        import random

        def run(faults):
            device = SimulatedSSD(small_geometry, fdp=True, faults=faults)
            _churn(device, random.Random(13), ops=4000)
            s = device.stats
            return (
                s.host_pages_written,
                s.nand_pages_written,
                s.gc_victim_selections,
                s.media_errors,
                device.ftl.latency.busy_until,
            )

        baseline = run(None)
        all_zero = run(FaultConfig())  # model attached, nothing enabled
        assert baseline == all_zero
        assert baseline[3] == 0


class TestScriptedFaultsOnDevice:
    def _gc_heavy_device(self, geometry, plan=(), **rates):
        return SimulatedSSD(
            geometry, fdp=True, faults=FaultConfig(plan=plan, **rates)
        )

    def test_scripted_erase_retires_superblock(self, tiny_geometry):
        import random

        device = self._gc_heavy_device(
            tiny_geometry, plan=(ScriptedFault(op="erase"),)
        )
        _churn(device, random.Random(1), ops=4000)
        assert device.stats.erase_failures == 1
        assert device.stats.superblocks_retired == 1
        retired = [
            sb
            for sb in device.ftl.superblocks
            if sb.state is SuperblockState.RETIRED
        ]
        assert len(retired) == 1
        assert retired[0].valid_pages == 0
        device.check_invariants()
        # The retirement shrank effective OP and consumed spare.
        assert device.ftl.effective_op_fraction() < tiny_geometry.op_fraction
        health = device.get_health_log()
        assert health.retired_superblocks == 1
        assert health.available_spare_pct < 100.0
        assert health.media_errors >= 1
        # The event log carries the media-error record.
        from repro.fdp.events import FdpEventType

        assert device.events.count(FdpEventType.MEDIA_ERROR) >= 1

    def test_scripted_read_fault_raises_uecc(self, tiny_geometry):
        device = self._gc_heavy_device(
            tiny_geometry, plan=(ScriptedFault(op="read", lba=5, times=99),)
        )
        device.write(5)
        with pytest.raises(UncorrectableReadError):
            device.read(5)
        device.check_invariants()
        # Unaffected LBAs still read fine.
        device.write(6)
        mapped, _ = device.read(6)
        assert mapped

    def test_program_fault_absorbed_by_write_point_retry(self, tiny_geometry):
        device = self._gc_heavy_device(
            tiny_geometry, plan=(ScriptedFault(op="program"),)
        )
        device.write(0)  # first program fails; the FTL skips the page
        assert device.stats.program_failures == 1
        mapped, _ = device.read(0)
        assert mapped  # data landed on the next page regardless
        device.check_invariants()


class TestDeviceLayerRetries:
    def test_transient_uecc_recovered_by_retry(self, tiny_geometry):
        device = SimulatedSSD(
            tiny_geometry,
            fdp=True,
            faults=FaultConfig(plan=(ScriptedFault(op="read", lba=3),)),
        )
        io = FdpAwareDevice(device, max_read_retries=3)
        io.write(3, 1, io.allocator.default())
        mapped, _ = io.read(3)  # first attempt UECCs, second succeeds
        assert mapped
        assert io.read_errors == 1
        assert io.read_retries == 1
        assert io.retries_exhausted == 0
        assert io.bytes_read == device.page_size

    def test_persistent_uecc_exhausts_retries(self, tiny_geometry):
        device = SimulatedSSD(
            tiny_geometry,
            fdp=True,
            faults=FaultConfig(
                plan=(ScriptedFault(op="read", lba=3, times=99),)
            ),
        )
        io = FdpAwareDevice(device, max_read_retries=2)
        io.write(3, 1, io.allocator.default())
        with pytest.raises(UncorrectableReadError):
            io.read(3)
        assert io.read_errors == 3  # initial try + 2 retries
        assert io.read_retries == 2
        assert io.retries_exhausted == 1
        assert io.bytes_read == 0  # a failed read transfers nothing


class TestCacheDegradation:
    def _soc(self, geometry, plan):
        device = SimulatedSSD(
            geometry, fdp=True, faults=FaultConfig(plan=plan)
        )
        io = FdpAwareDevice(device, max_read_retries=1)
        from repro.cache.soc import SmallObjectCache

        return SmallObjectCache(io, io.allocator.default(), 0, 8)

    def test_soc_read_error_is_miss_with_bloom_cleanup(self, tiny_geometry):
        soc = self._soc(
            tiny_geometry, plan=(ScriptedFault(op="read", times=99),)
        )
        item = CacheItem(1, 500)
        admitted, _ = soc.insert(item)
        assert admitted
        bucket = soc.bucket_of(1)
        found, _ = soc.lookup(1)
        assert found is None  # UECC degraded to a miss, not an exception
        assert soc.read_errors == 1
        # Bloom cleanup: the dead bucket's filter now rejects, so the
        # next lookup answers from DRAM without touching the device.
        errors_before = soc.device.read_errors
        found, _ = soc.lookup(1)
        assert found is None
        assert soc.bloom_rejects == 1
        assert soc.device.read_errors == errors_before
        assert not soc._buckets[bucket]

    def test_soc_write_failure_drops_bucket(self, tiny_geometry):
        # 16 consecutive program failures defeat both the FTL's 8
        # in-device attempts and the device layer's one resubmission.
        soc = self._soc(
            tiny_geometry, plan=(ScriptedFault(op="program", times=999),)
        )
        admitted, _ = soc.insert(CacheItem(1, 500))
        assert admitted  # admitted to the engine; the flash copy failed
        assert soc.write_errors == 1
        assert soc.write_drops == 1
        assert not soc.contains(1)
        found, _ = soc.lookup(1)
        assert found is None

    def test_loc_read_error_is_miss_and_unmaps_key(self, tiny_geometry):
        device = SimulatedSSD(
            tiny_geometry,
            fdp=True,
            faults=FaultConfig(plan=(ScriptedFault(op="read", times=99),)),
        )
        io = FdpAwareDevice(device, max_read_retries=1)
        from repro.cache.loc import LargeObjectCache

        loc = LargeObjectCache(
            io, io.allocator.default(), 0, 4, 4
        )
        # Fill past one region so key 1 lands in a *sealed* region
        # (open-region hits are served from DRAM and can't fail).
        loc.insert(CacheItem(1, 9000))
        loc.insert(CacheItem(2, 9000))
        loc.insert(CacheItem(3, 9000))
        assert loc.contains(1)
        found, _ = loc.lookup(1)
        assert found is None
        assert loc.read_errors == 1
        assert not loc.contains(1)  # key unmapped; next GET refills it

    def test_hybrid_cache_serves_through_failures(self, small_geometry):
        import random

        device = SimulatedSSD(
            small_geometry,
            fdp=True,
            faults=FaultConfig(
                seed=3,
                read_uecc_rate=0.02,
                program_fail_rate=0.02,
                erase_fail_rate=0.05,
            ),
        )
        cache = HybridCache(
            device,
            CacheConfig(
                dram_bytes=64 * 1024,
                soc_bytes=64 * 4096,
                loc_bytes=2 * 1024 * 1024,
                region_bytes=32 * 1024,
            ),
        )
        rng = random.Random(17)
        hits = 0
        for i in range(8000):
            k = rng.randrange(1500)
            if rng.random() < 0.5:
                hits += 1 if cache.get(k).hit else 0
            else:
                cache.set(k, rng.choice((300, 700, 9000)))
        device.check_invariants()
        assert hits > 0  # kept serving GETs throughout
        stats = cache.stats_dict()["faults"]
        assert stats["device_media_errors"] > 0
        # Every degradation path is accounted, none raised.
        assert (
            stats["read_errors"]
            + stats["write_errors"]
            + stats["io_retries"]
            >= 0
        )


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestFaultInvariantsProperty:
    """FTL invariants hold after any mix of injected fault classes."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        read_rate=st.sampled_from([0.0, 0.05, 0.3]),
        program_rate=st.sampled_from([0.0, 0.05, 0.3]),
        erase_rate=st.sampled_from([0.0, 0.1, 0.5]),
        workload_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_invariants_survive_any_fault_mix(
        self, seed, read_rate, program_rate, erase_rate, workload_seed
    ):
        import random

        geometry = Geometry(
            page_size=4096,
            pages_per_block=4,
            planes_per_die=2,
            dies=2,
            num_superblocks=32,
            op_fraction=0.10,
        )
        device = SimulatedSSD(
            geometry,
            fdp=True,
            faults=FaultConfig(
                seed=seed,
                read_uecc_rate=read_rate,
                program_fail_rate=program_rate,
                erase_fail_rate=erase_rate,
                latency_spike_rate=0.01,
            ),
        )
        rng = random.Random(workload_seed)
        _churn(device, rng, ops=1200)
        device.check_invariants()
        health = device.get_health_log()
        assert health.retired_superblocks == device.stats.superblocks_retired
        assert 0.0 <= health.available_spare_pct <= 100.0


class TestChaosSoak:
    def test_chaos_soak_completes_and_degrades_gracefully(self):
        from repro.bench import run_chaos_soak

        result = run_chaos_soak(
            num_ops=150_000,
            faults=FaultConfig(
                seed=0xFA17,
                read_uecc_rate=1e-4,
                program_fail_rate=1e-4,
                plan=(
                    ScriptedFault(op="erase"),
                    ScriptedFault(op="erase"),
                ),
            ),
            max_steady_dlwa=3.0,
            min_hit_ratio=0.3,
        )
        assert result.acceptance, result.table()
        health, row = result.evidence["health"], result.row("FDP")
        # The scripted erase failures permanently retired two blocks...
        assert health["retired_superblocks"] == 2
        assert health["available_spare_pct"] < 100.0
        assert health["media_errors"] >= 2
        # ...and the run's metrics surfaced the degradation.
        assert row["retired_superblocks"] == 2
        assert row["media_errors"] == health["media_errors"]
        assert row["ops"] == 150_000
        assert row["hit_ratio"] > 0.3

    def test_chaos_soak_is_deterministic(self):
        from repro.bench import run_chaos_soak

        def run():
            result = run_chaos_soak(num_ops=60_000)
            row = result.row("FDP")
            return (
                result.evidence["health"],
                row["hit_ratio"],
                row["dlwa"],
                row["write_drops"],
                row["io_retries"],
            )

        assert run() == run()
