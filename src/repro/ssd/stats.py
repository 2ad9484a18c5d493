"""Device counters and write-amplification accounting.

``DeviceStats`` is the simulator's equivalent of the SMART / OCP log
pages the paper polls through ``nvme get-log``: cumulative host writes,
cumulative NAND (media) writes, GC activity, and erase counts.  DLWA is
computed exactly as Equation 1 of the paper:

    DLWA = total NAND writes / total host writes

Interval DLWA (the quantity plotted in Figures 5, 7, 8, 11) is obtained
by snapshotting the counters periodically and differencing.
"""

from __future__ import annotations

import dataclasses

__all__ = ["DeviceStats", "StatsSnapshot"]


@dataclasses.dataclass(frozen=True)
class StatsSnapshot:
    """Immutable copy of the cumulative counters at one poll instant."""

    host_pages_written: int
    nand_pages_written: int
    host_pages_read: int
    gc_pages_read: int
    gc_pages_migrated: int
    gc_victim_selections: int
    superblocks_erased: int
    pages_deallocated: int
    # Media-failure counters (zero unless fault injection is enabled).
    read_uecc_errors: int = 0
    program_failures: int = 0
    erase_failures: int = 0
    superblocks_retired: int = 0
    latency_spikes: int = 0
    # Crash-consistency counters (zero unless power loss is exercised).
    power_cuts: int = 0
    recoveries: int = 0
    torn_pages_discarded: int = 0
    # End-to-end integrity counters (zero unless a latent-error model
    # or patrol scrubber is attached).
    reads_corrected: int = 0
    soft_decode_retries: int = 0
    crc_detected_corruptions: int = 0
    scrub_passes: int = 0
    scrub_pages_scanned: int = 0
    scrub_pages_relocated: int = 0
    scrub_blocks_retired: int = 0

    @property
    def dlwa(self) -> float:
        """Cumulative device-level write amplification (Eq. 1)."""
        if self.host_pages_written == 0:
            return 1.0
        return self.nand_pages_written / self.host_pages_written

    def interval_dlwa(self, earlier: "StatsSnapshot") -> float:
        """DLWA over the window since ``earlier`` (paper's 10-min poll)."""
        host = self.host_pages_written - earlier.host_pages_written
        nand = self.nand_pages_written - earlier.nand_pages_written
        if host <= 0:
            return 1.0
        return nand / host


class DeviceStats:
    """Mutable cumulative counters maintained by the FTL."""

    __slots__ = (
        "host_pages_written",
        "nand_pages_written",
        "host_pages_read",
        "gc_pages_read",
        "gc_pages_migrated",
        "gc_victim_selections",
        "superblocks_erased",
        "pages_deallocated",
        "read_uecc_errors",
        "program_failures",
        "erase_failures",
        "superblocks_retired",
        "latency_spikes",
        "power_cuts",
        "recoveries",
        "torn_pages_discarded",
        "reads_corrected",
        "soft_decode_retries",
        "crc_detected_corruptions",
        "scrub_passes",
        "scrub_pages_scanned",
        "scrub_pages_relocated",
        "scrub_blocks_retired",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero all counters (device format / sanitize)."""
        self.host_pages_written = 0
        self.nand_pages_written = 0
        self.host_pages_read = 0
        self.gc_pages_read = 0
        self.gc_pages_migrated = 0
        self.gc_victim_selections = 0
        self.superblocks_erased = 0
        self.pages_deallocated = 0
        self.read_uecc_errors = 0
        self.program_failures = 0
        self.erase_failures = 0
        self.superblocks_retired = 0
        self.latency_spikes = 0
        self.power_cuts = 0
        self.recoveries = 0
        self.torn_pages_discarded = 0
        self.reads_corrected = 0
        self.soft_decode_retries = 0
        self.crc_detected_corruptions = 0
        self.scrub_passes = 0
        self.scrub_pages_scanned = 0
        self.scrub_pages_relocated = 0
        self.scrub_blocks_retired = 0

    @property
    def media_errors(self) -> int:
        """Total media failures (UECC + program + erase), SMART style."""
        return self.read_uecc_errors + self.program_failures + self.erase_failures

    @property
    def dlwa(self) -> float:
        """Cumulative device-level write amplification (Eq. 1)."""
        if self.host_pages_written == 0:
            return 1.0
        return self.nand_pages_written / self.host_pages_written

    def snapshot(self) -> StatsSnapshot:
        """Freeze the current counters for interval accounting."""
        return StatsSnapshot(
            host_pages_written=self.host_pages_written,
            nand_pages_written=self.nand_pages_written,
            host_pages_read=self.host_pages_read,
            gc_pages_read=self.gc_pages_read,
            gc_pages_migrated=self.gc_pages_migrated,
            gc_victim_selections=self.gc_victim_selections,
            superblocks_erased=self.superblocks_erased,
            pages_deallocated=self.pages_deallocated,
            read_uecc_errors=self.read_uecc_errors,
            program_failures=self.program_failures,
            erase_failures=self.erase_failures,
            superblocks_retired=self.superblocks_retired,
            latency_spikes=self.latency_spikes,
            power_cuts=self.power_cuts,
            recoveries=self.recoveries,
            torn_pages_discarded=self.torn_pages_discarded,
            reads_corrected=self.reads_corrected,
            soft_decode_retries=self.soft_decode_retries,
            crc_detected_corruptions=self.crc_detected_corruptions,
            scrub_passes=self.scrub_passes,
            scrub_pages_scanned=self.scrub_pages_scanned,
            scrub_pages_relocated=self.scrub_pages_relocated,
            scrub_blocks_retired=self.scrub_blocks_retired,
        )
