"""Operational-energy model for the simulated SSD.

Theorem 3 of the paper states that operational energy is proportional to
host operations plus device migrations (GC).  The simulator makes that
concrete with per-operation energy costs plus an idle-power floor:

    E = reads * e_read + programs * e_program + erases * e_erase
        + P_idle * idle_time

The operation counts are read from :class:`~repro.ssd.stats.DeviceStats`
rather than counted a second time: reads are host, GC, soft-decode and
patrol-scrub page reads; programs are NAND page writes; erases are
superblock erase attempts (failed ones included) times the blocks in a
superblock.

Defaults are loosely calibrated to datasheet-class numbers for a
datacenter TLC NVMe SSD (active ~8-12 W, idle ~5 W); only the ratio of
FDP to Non-FDP energy matters for the reproduction of Figure 10b and
the operational-carbon discussion.
"""

from __future__ import annotations

import dataclasses

from .stats import DeviceStats

__all__ = ["EnergyCosts"]


@dataclasses.dataclass(frozen=True)
class EnergyCosts:
    """Per-operation energy in microjoules plus idle power in watts."""

    read_uj: float = 40.0
    program_uj: float = 350.0
    erase_uj: float = 2000.0
    idle_watts: float = 5.0

    def __post_init__(self) -> None:
        for name in ("read_uj", "program_uj", "erase_uj", "idle_watts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def joules(
        self,
        stats: DeviceStats,
        blocks_per_superblock: int,
        total_ns: int,
        busy_ns: int,
    ) -> float:
        """Energy of the operations ``stats`` counts plus the idle floor
        over the part of ``total_ns`` the device was not busy."""
        reads = (
            stats.host_pages_read
            + stats.gc_pages_read
            + stats.soft_decode_retries
            + stats.scrub_pages_scanned
        )
        erases = (
            stats.superblocks_erased + stats.erase_failures
        ) * blocks_per_superblock
        active_uj = (
            reads * self.read_uj
            + stats.nand_pages_written * self.program_uj
            + erases * self.erase_uj
        )
        idle_ns = max(0, total_ns - busy_ns)
        return active_uj * 1e-6 + self.idle_watts * idle_ns * 1e-9
