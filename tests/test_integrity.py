"""End-to-end data integrity: latent errors, read-retry ladder, scrub.

Covers the PR 4 subsystem top to bottom: the deterministic latent-error
model (read disturb, retention aging, silent corruption), per-page OOB
CRCs and the host-read ECC outcome ladder, the background patrol
scrubber (verify / refresh / retire, RUH-respecting relocation), the
per-page write hooks nothing can configure away, cache-layer
degradation on poisoned pages, power-cut recovery across scrub
relocations, and the integrity-soak acceptance criteria (zero
undetected corruptions with the scrubber on; nonzero without it).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.runner import run_integrity_soak
from repro.cache import CacheItem, LargeObjectCache, SmallObjectCache
from repro.cache.kangaroo import KangarooCache
from repro.core import FdpAwareDevice
from repro.faults import (
    FaultConfig,
    LatentErrorConfig,
    LatentErrorModel,
    OP_SILENT,
    OUTCOME_CLEAN,
    OUTCOME_CORRECTABLE,
    OUTCOME_SOFT_RETRY,
    OUTCOME_UECC,
    ProgramFailError,
    ScriptedFault,
    UncorrectableReadError,
)
from repro.fdp import PlacementIdentifier, RuhDescriptor, RuhType
from repro.fdp.config import FdpConfiguration
from repro.fdp.events import FdpEventType
from repro.ssd import (
    Geometry,
    OobRecord,
    PatrolScrubber,
    ScrubConfig,
    SimulatedSSD,
    SuperblockState,
    payload_crc,
    retention_acceleration,
)
from repro.ssd.ftl import MAX_PROGRAM_ATTEMPTS

QUIESCENT = LatentErrorConfig()


def tiny_device(**kwargs):
    """16 superblocks x 8 pages — small enough to reason about PPNs."""
    g = Geometry(
        page_size=4096,
        pages_per_block=4,
        planes_per_die=1,
        dies=2,
        num_superblocks=16,
        op_fraction=0.20,
    )
    kwargs.setdefault("latent", QUIESCENT)
    return SimulatedSSD(g, **kwargs)


def corrupt_on_media(device, lba):
    """Flip a page's media content while keeping its original CRC —
    the silent-corruption signature the CRC check must catch."""
    ppn = device.ftl._l2p[lba]
    assert ppn >= 0, f"LBA {lba} is not mapped"
    rec = device.ftl._oob[ppn]
    rec.payload = ("~bitrot", rec.payload)
    return ppn


class TestLatentErrorConfig:
    def test_defaults_are_quiescent(self):
        cfg = LatentErrorConfig()
        assert not cfg.any_enabled
        assert LatentErrorModel(cfg).corrupts_writes is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"read_disturb_per_read": -0.1},
            {"retention_rate": -1.0},
            {"wear_factor": -0.5},
            {"silent_corruption_rate": 1.5},
            {"correctable_threshold": 3.0},  # not < soft_retry
            {"uecc_threshold": 1.5},  # not > soft_retry
            {"soft_retry_limit": 0},
            {"correctable_penalty_ns": -1},
        ],
    )
    def test_rejects_invalid_knobs(self, kwargs):
        with pytest.raises(ValueError):
            LatentErrorConfig(**kwargs)

    def test_plan_accepts_only_silent_entries(self):
        with pytest.raises(ValueError):
            LatentErrorConfig(
                plan=(ScriptedFault(op="read_uecc", lba=1),)
            )
        cfg = LatentErrorConfig(plan=(ScriptedFault(op=OP_SILENT, lba=1),))
        assert cfg.any_enabled
        assert LatentErrorModel(cfg).corrupts_writes

    def test_classify_ladder_ordering(self):
        model = LatentErrorModel(
            LatentErrorConfig(
                correctable_threshold=1.0,
                soft_retry_threshold=2.0,
                uecc_threshold=4.0,
                soft_retry_limit=3,
            )
        )
        assert model.classify(0.5) == OUTCOME_CLEAN
        assert model.classify(1.5) == OUTCOME_CORRECTABLE
        assert model.classify(2.5) == OUTCOME_SOFT_RETRY
        assert model.classify(9.0) == OUTCOME_UECC
        # Retries grow with severity but stay bounded.
        assert model.soft_retries_for(2.1) == 1
        assert model.soft_retries_for(3.5) == 2
        assert model.soft_retries_for(99.0) == 3

    def test_retention_acceleration_scales_with_wear(self):
        assert retention_acceleration(0, 0.5) == 1.0
        assert retention_acceleration(10, 0.5) == 6.0
        with pytest.raises(ValueError):
            retention_acceleration(-1, 0.5)


class TestReadDisturb:
    def test_neighbours_accumulate_and_erase_resets(self):
        model = LatentErrorModel(LatentErrorConfig(read_disturb_per_read=1.0))
        model.bind(total_pages=32, pages_per_superblock=8)
        model.note_read(3)
        model.note_read(3)
        assert model.disturb_count(2) == 2
        assert model.disturb_count(4) == 2
        assert model.disturb_count(3) == 0  # the read page itself is fine
        # Disturb never crosses a superblock boundary.
        model.note_read(8)
        assert model.disturb_count(7) == 0
        assert model.disturb_count(9) == 1
        model.on_erase(0, 8)
        assert model.disturb_count(2) == 0
        assert model.disturb_count(9) == 1  # other superblock untouched

    def test_disturb_drives_the_ladder_on_host_reads(self):
        dev = tiny_device(
            latent=LatentErrorConfig(
                read_disturb_per_read=0.5,
                correctable_threshold=1.0,
                soft_retry_threshold=2.0,
                uecc_threshold=4.0,
            )
        )
        for lba in range(4):
            dev.write(lba, payload=("t", lba))
        # Two reads of LBA 1 disturb its physical neighbours (LBAs 0
        # and 2 — the fill was sequential) to level 1.0: correctable.
        dev.read(1)
        dev.read(1)
        base = dev.stats.reads_corrected
        _, done = dev.read(0)
        assert dev.stats.reads_corrected == base + 1
        # Four more reads push the neighbours to level 3.0: soft retry.
        dev.read(1)
        dev.read(1)
        dev.read(1)
        dev.read(1)
        assert dev.stats.soft_decode_retries == 0
        dev.read(2)
        assert dev.stats.soft_decode_retries >= 1
        # Past the UECC threshold the read fails to the retry path.
        for _ in range(4):
            dev.read(1)
        with pytest.raises(UncorrectableReadError):
            dev.read(0)
        assert dev.stats.read_uecc_errors == 1
        dev.check_invariants()

    def test_correctable_read_charges_latency_penalty(self):
        penalty = 40_000
        dev = tiny_device(
            latent=LatentErrorConfig(
                read_disturb_per_read=1.0, correctable_penalty_ns=penalty
            )
        )
        for lba in range(4):
            dev.write(lba, payload=("t", lba))
        dev.read(1)  # disturbs LBAs 0 and 2 to level 1.0
        _, clean_done = dev.read(3, now_ns=10**9)  # LBA 3 undisturbed
        _, slow_done = dev.read(0, now_ns=2 * 10**9)
        assert (slow_done - 2 * 10**9) == (clean_done - 10**9) + penalty


class TestEndToEndCrc:
    def test_writes_stamp_crcs_when_protected(self):
        dev = tiny_device()
        dev.write(0, 4, payload="tok")
        for off in range(4):
            rec = dev.ftl._oob[dev.ftl._l2p[off]]
            assert rec.crc == payload_crc("tok")

    def test_no_crc_overhead_without_latent_or_scrub(self):
        dev = tiny_device(latent=None)
        dev.write(0, payload="tok")
        assert dev.ftl._oob[dev.ftl._l2p[0]].crc is None

    def test_detected_corruption_poisons_and_degrades(self):
        dev = tiny_device()
        dev.write(0, payload="good")
        dev.write(1, payload="bystander")
        corrupt_on_media(dev, 0)
        with pytest.raises(UncorrectableReadError):
            dev.read(0)
        assert dev.stats.crc_detected_corruptions == 1
        # The poisoned page unmapped: the retry observes a clean miss.
        mapped, _ = dev.read(0)
        assert mapped is False
        assert dev.read_payload(0)[0] is None
        assert dev.read(1)[0] is True  # bystander unaffected
        dev.check_invariants()

    def test_scripted_silent_corruption_is_caught_by_read(self):
        dev = tiny_device(
            latent=LatentErrorConfig(
                plan=(ScriptedFault(op=OP_SILENT, lba=5),)
            )
        )
        assert dev.ftl._page_hooks  # corrupting model: one-page chunks
        for lba in range(8):
            dev.write(lba, payload=("t", lba))
        assert dev.latent.corruptions_injected == 1
        with pytest.raises(UncorrectableReadError, match="CRC mismatch"):
            dev.read(5)
        assert dev.read_payload(5)[0] is None

    def test_crc_carried_through_gc_keeps_corruption_detectable(self):
        dev = tiny_device()
        dev.write(0, payload="victim")
        ppn = corrupt_on_media(dev, 0)
        original_crc = dev.ftl._oob[ppn].crc
        # Fill the rest of the device so GC must migrate the corrupt
        # page (it is still valid — nobody has read it yet).
        spare = dev.capacity_pages
        for round_ in range(4):
            for lba in range(1, spare):
                dev.write(lba, payload=("fill", round_, lba))
        new_ppn = dev.ftl._l2p[0]
        rec = dev.ftl._oob[new_ppn]
        # Whether or not GC moved it, the original CRC must still cover
        # the corrupt payload — migration must not re-stamp.
        assert rec.crc == original_crc
        with pytest.raises(UncorrectableReadError):
            dev.read(0)
        dev.check_invariants()

    def test_recovery_drops_poisoned_pages(self):
        dev = tiny_device()
        dev.write(0, payload="doomed")
        dev.write(1, payload="kept")
        corrupt_on_media(dev, 0)
        with pytest.raises(UncorrectableReadError):
            dev.read(0)
        dev.power_cut()
        dev.recover()
        assert dev.read_payload(0)[0] is None
        assert dev.read_payload(1)[0] == "kept"
        dev.check_invariants()

    def test_oob_record_pickle_roundtrip(self):
        rec = OobRecord(7, 3, ("host", 0, 1), "payload", True, 1234)
        clone = OobRecord(0, 0, "x", None, False)
        clone.__setstate__(rec.__getstate__())
        assert (clone.lba, clone.seq, clone.crc) == (7, 3, 1234)


AGING = LatentErrorConfig(
    retention_rate=0.01,  # level 1.0 after 100 sequence ticks
    correctable_threshold=3.0,
    soft_retry_threshold=4.0,
    uecc_threshold=50.0,
)


class TestPatrolScrubber:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScrubConfig(interval_ns=0)
        with pytest.raises(ValueError):
            ScrubConfig(refresh_threshold=0.0)
        with pytest.raises(ValueError):
            ScrubConfig(retire_after_failures=0)
        with pytest.raises(TypeError):
            PatrolScrubber("not a config")

    def test_run_scrub_pass_requires_scrubber(self):
        dev = tiny_device()
        with pytest.raises(ValueError, match="no patrol scrubber"):
            dev.run_scrub_pass()

    def test_full_pass_relocates_aged_pages_and_balances_dlwa(self):
        dev = tiny_device(
            latent=AGING, scrub=ScrubConfig(refresh_threshold=1.0)
        )
        # Close two superblocks of cold data, then age the clock with
        # disjoint hot writes.
        for lba in range(16):
            dev.write(lba, payload=("cold", lba))
        for round_ in range(10):
            for lba in range(16, 32):
                dev.write(lba, payload=("hot", round_, lba))
        status = dev.run_scrub_pass()
        assert status.pages_relocated >= 16
        assert dev.stats.scrub_pages_relocated == status.pages_relocated
        assert dev.stats.scrub_passes == 1
        # No data moved logically: every token still reads back.
        for lba in range(16):
            assert dev.read_payload(lba)[0] == ("cold", lba)
        # Scrub writes are NAND writes: the DLWA ledger balances.
        s = dev.stats
        assert s.nand_pages_written == (
            s.host_pages_written
            + s.gc_pages_migrated
            + s.scrub_pages_relocated
        )
        assert dev.dlwa > (
            (s.host_pages_written + s.gc_pages_migrated)
            / s.host_pages_written
        )
        # Relocation emitted FDP events and shows in the health log.
        events = [
            e for e in dev.events.recent(100)
            if e.event_type is FdpEventType.SCRUB_RELOCATION
        ]
        assert events and sum(e.pages for e in events) == status.pages_relocated
        health = dev.get_health_log()
        assert health.scrub_pages_relocated == status.pages_relocated
        assert health.scrub_passes == 1
        dev.check_invariants()

    def test_background_pacing_scrubs_from_host_io(self):
        dev = tiny_device(
            latent=AGING,
            scrub=ScrubConfig(interval_ns=1_000_000, refresh_threshold=1.0),
        )
        for lba in range(16):
            dev.write(lba, payload=("cold", lba))
        now = 0
        for round_ in range(40):
            for lba in range(16, 32):
                now = dev.write(lba, now_ns=now, payload=("hot", round_))
        # The patrol ran purely from polled host I/O: no explicit pass.
        assert dev.stats.scrub_pages_scanned > 0
        assert dev.scrub_status().next_due_ns > 1_000_000
        dev.check_invariants()

    def test_scrub_detects_cold_corruption_host_never_reads(self):
        dev = tiny_device(scrub=True)
        for lba in range(8):
            dev.write(lba, payload=("cold", lba))
        corrupt_on_media(dev, 3)
        status = dev.run_scrub_pass()
        assert status.corrupt_detected == 1
        assert dev.stats.crc_detected_corruptions == 1
        assert dev.read_payload(3)[0] is None  # poisoned, not served
        dev.check_invariants()

    def test_repeatedly_failing_block_is_retired(self):
        dev = tiny_device(
            scrub=ScrubConfig(retire_after_failures=2, min_free_superblocks=1)
        )
        # One CLOSED superblock (8 pages) with two corrupted pages.
        for lba in range(8):
            dev.write(lba, payload=("c", lba))
        sb_index = dev.ftl._l2p[0] // dev.ftl._pps
        assert dev.ftl.superblocks[sb_index].state is SuperblockState.CLOSED
        corrupt_on_media(dev, 1)
        corrupt_on_media(dev, 6)
        retired_before = dev.stats.superblocks_retired
        dev.run_scrub_pass()
        assert dev.stats.scrub_blocks_retired == 1
        assert dev.stats.superblocks_retired == retired_before + 1
        assert dev.ftl.superblocks[sb_index].state is SuperblockState.RETIRED
        # Surviving pages were drained, not lost.
        for lba in (0, 2, 3, 4, 5, 7):
            assert dev.read_payload(lba)[0] == ("c", lba)
        for lba in (1, 6):
            assert dev.read_payload(lba)[0] is None
        dev.check_invariants()

    def test_relocation_respects_persistent_ruh_isolation(self):
        g = Geometry(
            page_size=4096,
            pages_per_block=4,
            planes_per_die=1,
            dies=2,
            num_superblocks=24,
            op_fraction=0.20,
        )
        config = FdpConfiguration(
            ruhs=tuple(
                RuhDescriptor(i, RuhType.PERSISTENTLY_ISOLATED)
                for i in range(4)
            ),
            num_reclaim_groups=1,
            reclaim_unit_bytes=g.superblock_bytes,
        )
        dev = SimulatedSSD(
            g,
            fdp=config,
            latent=AGING,
            scrub=ScrubConfig(refresh_threshold=1.0),
        )
        # Cold data through RUH 2, hot aging traffic through RUH 0.
        for lba in range(16):
            dev.write(lba, pid=PlacementIdentifier(0, 2), payload=("c", lba))
        for round_ in range(10):
            for lba in range(16, 32):
                dev.write(
                    lba, pid=PlacementIdentifier(0, 0), payload=("h", round_)
                )
        status = dev.run_scrub_pass()
        assert status.pages_relocated >= 16
        # The per-RUH breakdown pins every relocation to RUH 2's
        # private GC stream — no re-intermixing.
        relocated = dict(status.relocated_by_ruh)
        assert set(relocated) == {(0, 2)}
        for lba in range(16):
            ppn = dev.ftl._l2p[lba]
            sb = dev.ftl.superblocks[ppn // dev.ftl._pps]
            assert sb.stream[1:] == (0, 2)
        dev.check_invariants()


class TestWriteHooks:
    """The one write path consults the injectors before every host page
    whenever one that needs to is attached — decided at construction
    from what is attached, with nothing a caller could pass to turn it
    off — and programs whole chunks otherwise."""

    def test_fault_hooks_fire_inside_a_multi_page_write(self):
        dev = tiny_device(
            latent=None, faults=FaultConfig(program_fail_rate=1.0)
        )
        # The injector genuinely sees every page: a certain program
        # failure surfaces from the middle of an extent write.
        with pytest.raises(ProgramFailError):
            dev.write(0, 4, payload="x")
        assert dev.faults.program_ops == MAX_PROGRAM_ATTEMPTS
        assert dev.faults.host_program_ops == 1

    @pytest.mark.parametrize(
        "how", ["config", "beside-faults", "beside-scrub"]
    )
    def test_corruption_hits_exactly_the_scripted_page(self, how):
        """However the corrupting model reaches the device, the page it
        scripts — the third of a six-page extent — is the one page
        stored corrupt, under the CRC of what the host sent."""
        config = LatentErrorConfig(
            plan=(ScriptedFault(op=OP_SILENT, op_index=11),)
        )
        dev = tiny_device(
            **{
                "config": dict(latent=config),
                "beside-faults": dict(latent=config, faults=FaultConfig()),
                "beside-scrub": dict(latent=config, scrub=True),
            }[how]
        )
        dev.write(0, 8, payload="first")  # host pages 1..8
        dev.write(20, 6, payload="second")  # 9..14: page 11 is LBA 22
        assert dev.read_payload(0, 8) == ["first"] * 8
        assert dev.read_payload(20, 6) == (
            ["second"] * 2 + [("~bitrot", "second")] + ["second"] * 3
        )
        assert {
            dev.ftl._oob[dev.ftl._l2p[lba]].crc for lba in range(20, 26)
        } == {payload_crc("second")}
        assert dev.latent.injection_totals == {
            "host_program_ops": 14,
            "silent_corruptions": 1,
        }
        with pytest.raises(UncorrectableReadError, match="CRC mismatch"):
            dev.read(20, 6)

    def test_quiescent_latent_keeps_whole_chunks_counts_pages(self):
        """A quiescent model needs no per-page hook, so extents stay
        whole — but its public tally still counts every host page (it
        is the ``op_index`` domain of a scripted plan).  Regression:
        the extent path used to leave ``host_program_ops`` at 0 where
        the page loop counted 200."""
        dev = tiny_device()
        chunks = []
        program_extent = dev.ftl._program_extent
        dev.ftl._program_extent = lambda sb, stream, count, *rest: (
            chunks.append(count) or program_extent(sb, stream, count, *rest)
        )
        for i in range(50):
            dev.write(4 * i % 100, 4, payload=("w", i))
        assert chunks == [4] * 50
        assert dev.latent.injection_totals == {
            "host_program_ops": 200,
            "silent_corruptions": 0,
        }
        assert dev.ftl._oob[dev.ftl._l2p[0]].crc == payload_crc(("w", 25))


class TestCacheDegradation:
    """Poisoned pages must degrade to misses/drops in every engine,
    exactly like PR 1's media errors — including bloom cleanup."""

    def make_layer(self):
        g = Geometry(
            page_size=4096,
            pages_per_block=8,
            planes_per_die=2,
            dies=2,
            num_superblocks=128,
            op_fraction=0.10,
        )
        dev = SimulatedSSD(g, fdp=True, latent=QUIESCENT)
        return FdpAwareDevice(dev), dev

    def test_soc_lookup_degrades_and_cleans_bloom(self):
        layer, dev = self.make_layer()
        soc = SmallObjectCache(
            layer, layer.allocator.allocate("soc"), base_lba=0, num_buckets=64
        )
        soc.insert(CacheItem(1, 500))
        corrupt_on_media(dev, soc.bucket_of(1))
        item, _ = soc.lookup(1)
        assert item is None
        assert soc.read_errors == 1
        # The bloom was rebuilt: the next lookup is a clean DRAM reject,
        # not another doomed flash read.
        rejects = soc.bloom_rejects
        item, _ = soc.lookup(1)
        assert item is None
        assert soc.bloom_rejects == rejects + 1
        assert soc.read_errors == 1
        # The bucket is reusable afterwards.
        soc.insert(CacheItem(1, 600))
        assert soc.lookup(1)[0] == CacheItem(1, 600)

    def test_loc_lookup_degrades_to_miss(self):
        layer, dev = self.make_layer()
        loc = LargeObjectCache(
            layer,
            layer.allocator.allocate("loc"),
            base_lba=0,
            num_regions=8,
            region_pages=8,
        )
        # Fill past one region so key 0's region is sealed on flash.
        for key in range(8):
            loc.insert(CacheItem(key, 8000))
        region_id, _ = loc.index[0]
        corrupt_on_media(dev, loc._region_lba(region_id))
        item, _ = loc.lookup(0)
        assert item is None
        assert loc.read_errors == 1
        assert 0 not in loc.index  # unmapped; next GET refills

    def test_kangaroo_log_degrades_to_sets(self):
        layer, dev = self.make_layer()
        kang = KangarooCache(
            layer,
            layer.allocator.allocate("soc-log"),
            layer.allocator.allocate("soc-set"),
            base_lba=0,
            num_log_pages=8,
            num_buckets=64,
            move_threshold=2,
        )
        # Fill several log pages so early keys live on flushed pages.
        key = 0
        while kang._log_index.get(0, kang._head) == kang._head:
            kang.insert(CacheItem(key, 400))
            key += 1
        page = kang._log_index[0]
        corrupt_on_media(dev, kang._log_lba(page))
        item, _ = kang.lookup(0)
        assert item is None
        assert kang.log_read_errors == 1
        assert 0 not in kang._log_index  # dropped page's keys are gone


class TestPowerCutDuringScrub:
    """Satellite: scrub relocations are capacitor-backed maintenance —
    a cut right after (or racing) a patrol pass must recover with no
    torn relocation visible to reads."""

    def test_cut_after_relocation_recovers_cleanly(self):
        dev = tiny_device(
            latent=AGING,
            scrub=ScrubConfig(refresh_threshold=1.0),
            journal_flush_interval=4,
        )
        shadow = {}
        for lba in range(16):
            dev.write(lba, payload=("cold", lba))
            shadow[lba] = ("cold", lba)
        now = 0
        for round_ in range(10):
            for lba in range(16, 32):
                now = dev.write(lba, now_ns=now, payload=("hot", round_))
                shadow[lba] = ("hot", round_)
        status = dev.run_scrub_pass(now)
        assert status.pages_relocated >= 16
        # Cut "mid-scrub": the clock is rewound into the pass's busy
        # window.  Relocation programs are capacitor-backed, so the
        # newest (relocated) copy must survive with its CRC intact.
        dev.power_cut(now)
        dev.recover()
        dev.check_invariants()
        for lba, token in shadow.items():
            assert dev.read_payload(lba)[0] == token
            mapped, _ = dev.read(lba)  # CRC-verified read, no UECC
            assert mapped is True

    def test_cut_after_scrub_poison_stays_poisoned(self):
        dev = tiny_device(scrub=True, journal_flush_interval=4)
        for lba in range(8):
            dev.write(lba, payload=("c", lba))
        corrupt_on_media(dev, 2)
        dev.run_scrub_pass()
        assert dev.stats.crc_detected_corruptions == 1
        dev.power_cut()
        dev.recover()
        # Recovery's OOB validation drops the poisoned page; the
        # corruption cannot resurrect as valid data.
        assert dev.read_payload(2)[0] is None
        for lba in (0, 1, 3, 4, 5, 6, 7):
            assert dev.read_payload(lba)[0] == ("c", lba)
        dev.check_invariants()


# -- Hypothesis: a patrol pass is logically invisible -----------------

PROP_GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=4,
    planes_per_die=1,
    dies=2,
    num_superblocks=24,
    op_fraction=0.20,
)
PROP_LBAS = PROP_GEOMETRY.logical_pages

prop_step = st.tuples(
    st.sampled_from(["write", "trim"]),
    st.integers(min_value=0, max_value=PROP_LBAS - 9),
    st.integers(min_value=1, max_value=8),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(trace=st.lists(prop_step, min_size=1, max_size=120))
def test_scrub_pass_never_loses_or_duplicates_an_lba(trace):
    """Shadow-map equality before and after a full patrol pass: scrub
    relocation moves physical pages but must never change what any
    logical address reads back, lose a mapping, or invent one."""
    dev = SimulatedSSD(
        PROP_GEOMETRY,
        fdp=True,
        latent=LatentErrorConfig(retention_rate=0.05, uecc_threshold=1e9),
        scrub=ScrubConfig(refresh_threshold=0.5, min_free_superblocks=1),
    )
    shadow = {}
    for i, (op, lba, npages) in enumerate(trace):
        if op == "write":
            dev.write(lba, npages, payload=("p", i))
            for off in range(npages):
                shadow[lba + off] = ("p", i)
        else:
            dev.deallocate(lba, npages)
            for off in range(npages):
                shadow.pop(lba + off, None)
    before = dev.read_payload(0, PROP_LBAS)
    assert before == [shadow.get(lba) for lba in range(PROP_LBAS)]
    dev.run_scrub_pass()
    after = dev.read_payload(0, PROP_LBAS)
    assert after == before
    assert dev.ftl.valid_page_total() == len(shadow)
    dev.check_invariants()


class TestIntegritySoak:
    def test_acceptance_scrub_on_vs_off(self):
        """The PR's acceptance bar: with realistic latent rates and the
        scrubber on, zero *undetected* corruptions and scrub traffic
        visible in DLWA; the same seed without the scrubber leaves a
        nonzero undetected count."""
        kwargs = dict(span=512, phases=3, commands_per_phase=96)
        on = run_integrity_soak(scrub=True, **kwargs)
        assert on["corruptions_injected"] > 0
        assert on["undetected_corruptions"] == 0
        assert on["scrub_pages_relocated"] > 0
        assert on["nand_pages_written"] == (
            on["host_pages_written"]
            + on["gc_pages_migrated"]
            + on["scrub_pages_relocated"]
        )
        assert on["dlwa"] > 1.0
        off = run_integrity_soak(scrub=False, **kwargs)
        assert off["undetected_corruptions"] > 0
        assert off["scrub_pages_relocated"] == 0

    def test_detected_plus_intact_covers_the_span(self):
        r = run_integrity_soak(span=512, phases=3, commands_per_phase=96)
        assert (
            r["pages_intact"]
            + r["pages_lost_detected"]
            + r["undetected_corruptions"]
            == 512
        )
        assert r["reads_corrected"] >= 0
        assert r["scrub_passes"] >= 1

    @pytest.mark.slow
    def test_long_soak_default_parameters(self):
        on = run_integrity_soak(scrub=True)
        assert on["undetected_corruptions"] == 0
        assert on["scrub_pages_relocated"] > 0
        off = run_integrity_soak(scrub=False)
        assert off["undetected_corruptions"] > 0
