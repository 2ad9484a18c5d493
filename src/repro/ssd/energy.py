"""Operational-energy model for the simulated SSD.

Theorem 3 of the paper states that operational energy is proportional to
host operations plus device migrations (GC).  The simulator makes that
concrete with per-operation energy costs plus an idle-power floor:

    E = reads * e_read + programs * e_program + erases * e_erase
        + P_idle * idle_time

Defaults are loosely calibrated to datasheet-class numbers for a
datacenter TLC NVMe SSD (active ~8-12 W, idle ~5 W); only the ratio of
FDP to Non-FDP energy matters for the reproduction of Figure 10b and
the operational-carbon discussion.
"""

from __future__ import annotations

import dataclasses

__all__ = ["EnergyCosts", "EnergyModel"]


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


class EnergyModel:
    """Accumulates NAND operation counts and converts them to energy."""

    __slots__ = ("costs", "page_reads", "page_programs", "block_erases")

    def __init__(self, costs: EnergyCosts | None = None) -> None:
        self.costs = costs or EnergyCosts()
        self.reset()

    def reset(self) -> None:
        """Zero the operation counters."""
        self.page_reads = 0
        self.page_programs = 0
        self.block_erases = 0

    def add_reads(self, n: int) -> None:
        self.page_reads += n

    def add_programs(self, n: int) -> None:
        self.page_programs += n

    def add_erases(self, n: int) -> None:
        self.block_erases += n

    def active_energy_j(self) -> float:
        """Energy spent on NAND operations, in joules."""
        uj = (
            self.page_reads * self.costs.read_uj
            + self.page_programs * self.costs.program_uj
            + self.block_erases * self.costs.erase_uj
        )
        return uj * 1e-6

    def idle_energy_j(self, total_ns: int, busy_ns: int) -> float:
        """Idle-floor energy over a run of ``total_ns`` simulated time."""
        idle_ns = max(0, total_ns - busy_ns)
        return self.costs.idle_watts * idle_ns * 1e-9

    def total_energy_j(self, total_ns: int, busy_ns: int) -> float:
        """Active plus idle energy over the run, in joules."""
        return self.active_energy_j() + self.idle_energy_j(total_ns, busy_ns)

    def total_energy_kwh(self, total_ns: int, busy_ns: int) -> float:
        """Total energy in kilowatt-hours (for the carbon model)."""
        return self.total_energy_j(total_ns, busy_ns) / 3.6e6
