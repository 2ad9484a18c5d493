"""Device counters and write-amplification accounting.

``DeviceStats`` is the simulator's equivalent of the SMART / OCP log
pages the paper polls through ``nvme get-log``: cumulative host writes,
cumulative NAND (media) writes, GC activity, and erase counts.  It is
the device's only record of these facts; the health log, the scrub
status and the energy model all read it.  DLWA is computed exactly as
Equation 1 of the paper:

    DLWA = total NAND writes / total host writes

Interval DLWA (the quantity plotted in Figures 5, 7, 8, 11) is obtained
by snapshotting the counters periodically and differencing.
"""

from __future__ import annotations

import dataclasses

__all__ = ["DeviceStats"]


@dataclasses.dataclass(slots=True)
class DeviceStats:
    """Cumulative counters maintained by the FTL."""

    host_pages_written: int = 0
    nand_pages_written: int = 0
    host_pages_read: int = 0
    gc_pages_read: int = 0
    gc_pages_migrated: int = 0
    gc_victim_selections: int = 0
    superblocks_erased: int = 0
    pages_deallocated: int = 0
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
    def media_errors(self) -> int:
        """Total media failures (UECC + program + erase), SMART style."""
        return self.read_uecc_errors + self.program_failures + self.erase_failures

    @property
    def dlwa(self) -> float:
        """Cumulative device-level write amplification (Eq. 1)."""
        if self.host_pages_written == 0:
            return 1.0
        return self.nand_pages_written / self.host_pages_written

    def interval_dlwa(self, earlier: "DeviceStats") -> float:
        """DLWA over the window since ``earlier`` (paper's 10-min poll)."""
        host = self.host_pages_written - earlier.host_pages_written
        nand = self.nand_pages_written - earlier.nand_pages_written
        if host <= 0:
            return 1.0
        return nand / host

    def snapshot(self) -> "DeviceStats":
        """Copy the current counters for interval accounting."""
        return dataclasses.replace(self)
