"""Deterministic, seed-driven fault model for the simulated SSD.

The paper's stack runs on real PM9D3 devices where uncorrectable read
errors, program failures, and wear-driven block retirement are routine;
CacheLib's flash engines are built to absorb them (an NVM I/O error is
a miss, never an outage).  This module supplies the device half of that
story for the simulator:

* :class:`FaultConfig` — per-operation failure probabilities, latency
  spike shape, and an optional scripted :class:`~repro.faults.plan.
  FaultPlan`, all hanging off one seed.
* :class:`FaultModel` — the stateful injector the FTL consults on every
  read, program, and erase.  Each fault class draws from its own
  :class:`random.Random` stream (seeded from the master seed and a
  per-class salt), so enabling one class never perturbs another's
  sequence and two runs with the same seed and workload produce an
  identical fault history — the property the chaos tests pin down.
* :class:`HealthLogPage` — a SMART-like snapshot (media errors, retired
  blocks, spare capacity, percent-used) in the shape of the NVMe
  health / OCP SMART log the paper polls with ``nvme get-log``.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Tuple

from .plan import (
    OP_ERASE,
    OP_POWER,
    OP_PROGRAM,
    OP_READ,
    FaultPlan,
    ScriptedFault,
)

__all__ = ["FaultConfig", "FaultModel", "HealthLogPage"]

# Per-class RNG salts: one independent stream per fault class.
_READ_SALT = 0x52454144
_PROGRAM_SALT = 0x50524F47
_ERASE_SALT = 0x45524153
_SPIKE_SALT = 0x53504B45


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """Shape of the injected failure distribution.

    Parameters
    ----------
    seed:
        Master seed; every per-class stream derives from it.
    read_uecc_rate:
        Probability that one mapped-page read raises an uncorrectable
        ECC error.  Transient per attempt: a device-layer retry re-rolls,
        modelling read-retry with adjusted thresholds.
    program_fail_rate:
        Probability that one page program fails; the FTL retries on the
        next page of the write point.
    erase_fail_rate:
        Probability that one superblock erase fails; the block is
        permanently retired, shrinking effective overprovisioning.
    latency_spike_rate:
        Probability that one host command is delayed by
        ``latency_spike_ns`` (firmware pauses, internal housekeeping).
    latency_spike_ns:
        Duration of one injected spike.
    plan:
        Scripted faults checked before any probabilistic roll.
    """

    seed: int = 0xFA17
    read_uecc_rate: float = 0.0
    program_fail_rate: float = 0.0
    erase_fail_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_ns: int = 2_000_000
    plan: Tuple[ScriptedFault, ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "read_uecc_rate",
            "program_fail_rate",
            "erase_fail_rate",
            "latency_spike_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.latency_spike_ns < 0:
            raise ValueError("latency_spike_ns must be non-negative")
        # Tolerate a list from callers; store an immutable tuple.
        if not isinstance(self.plan, tuple):
            object.__setattr__(self, "plan", tuple(self.plan))


@dataclasses.dataclass(frozen=True)
class HealthLogPage:
    """SMART-like device health snapshot (``nvme smart-log`` shape)."""

    media_errors: int
    read_uecc_errors: int
    program_failures: int
    erase_failures: int
    retired_superblocks: int
    latency_spikes: int
    available_spare_pct: float
    percent_used: float
    # Endurance rating the percent_used gauge was computed against.
    rated_pe_cycles: int = 3000
    # Crash-consistency counters (unsafe shutdowns, NVMe SMART-style).
    power_cuts: int = 0
    recoveries: int = 0
    torn_pages_discarded: int = 0
    # End-to-end integrity counters (latent errors + patrol scrub).
    reads_corrected: int = 0
    soft_decode_retries: int = 0
    crc_detected_corruptions: int = 0
    scrub_passes: int = 0
    scrub_pages_scanned: int = 0
    scrub_pages_relocated: int = 0
    scrub_blocks_retired: int = 0

    @property
    def healthy(self) -> bool:
        """Spare capacity left and endurance not exhausted."""
        return self.available_spare_pct > 0.0 and self.percent_used < 100.0


class FaultModel:
    """Stateful injector consulted by the FTL on every media operation.

    The model never touches device state itself — it only answers
    "does this operation fail?" — so the FTL remains the single owner
    of mapping and bookkeeping, and the model can be unit-tested in
    isolation.
    """

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self.plan = FaultPlan(config.plan)
        base = config.seed
        self._read_rng = random.Random((base << 4) ^ _READ_SALT)
        self._program_rng = random.Random((base << 4) ^ _PROGRAM_SALT)
        self._erase_rng = random.Random((base << 4) ^ _ERASE_SALT)
        self._spike_rng = random.Random((base << 4) ^ _SPIKE_SALT)
        # Per-class operation indices (1-based at match time) so
        # scripted faults can target "the Nth program".
        self.read_ops = 0
        self.program_ops = 0
        self.erase_ops = 0
        self.host_program_ops = 0
        # Injection tallies (the device's stats counters are the
        # authoritative health-log source; these let the model be
        # inspected standalone).
        self.reads_failed = 0
        self.programs_failed = 0
        self.erases_failed = 0
        self.spikes_fired = 0
        self.power_cuts_fired = 0

    # ------------------------------------------------------------------

    # Each decision draws from its class RNG *before* the plan check
    # (whenever a rate is configured), so a scripted firing consumes
    # the same number of draws as a non-firing op — scripted plans
    # overlay probabilistic streams without shifting them.

    def fail_read(self, lba: int) -> bool:
        """Whether the read of one mapped page at ``lba`` hits UECC."""
        self.read_ops += 1
        rate = self.config.read_uecc_rate
        rolled = bool(rate) and self._read_rng.random() < rate
        if rolled or self.plan.take(
            OP_READ, lba=lba, op_index=self.read_ops
        ):
            self.reads_failed += 1
            return True
        return False

    def fail_program(self, ppn: int) -> bool:
        """Whether programming physical page ``ppn`` fails."""
        self.program_ops += 1
        rate = self.config.program_fail_rate
        rolled = bool(rate) and self._program_rng.random() < rate
        if rolled or self.plan.take(OP_PROGRAM, op_index=self.program_ops):
            self.programs_failed += 1
            return True
        return False

    def fail_erase(self, superblock: int, cycle: int) -> bool:
        """Whether the ``cycle``-th erase of ``superblock`` fails."""
        self.erase_ops += 1
        rate = self.config.erase_fail_rate
        rolled = bool(rate) and self._erase_rng.random() < rate
        if rolled or self.plan.take(
            OP_ERASE,
            superblock=superblock,
            cycle=cycle,
            op_index=self.erase_ops,
        ):
            self.erases_failed += 1
            return True
        return False

    def power_loss_on_program(self) -> bool:
        """Whether power dies during this host page program.

        Purely scripted (no probabilistic rate and no RNG draw — a
        power-loss plan never perturbs the media-fault streams).  The
        counter tracks *host* page programs only; GC programs are
        power-loss-protected (capacitor-backed) and do not advance it.
        """
        self.host_program_ops += 1
        if not self.plan.has(OP_POWER):
            return False
        if self.plan.take(OP_POWER, op_index=self.host_program_ops):
            self.power_cuts_fired += 1
            return True
        return False

    def latency_spike(self) -> int:
        """Extra service nanoseconds for one host command (0 = none)."""
        rate = self.config.latency_spike_rate
        if not rate:
            return 0
        if self._spike_rng.random() < rate:
            self.spikes_fired += 1
            return self.config.latency_spike_ns
        return 0

    # ------------------------------------------------------------------

    def injection_totals(self) -> dict:
        """Plain-dict tally of everything injected so far."""
        return {
            "reads_failed": self.reads_failed,
            "programs_failed": self.programs_failed,
            "erases_failed": self.erases_failed,
            "spikes_fired": self.spikes_fired,
            "power_cuts_fired": self.power_cuts_fired,
            "scripted_fired": self.plan.fired,
            "scripted_pending": self.plan.pending,
        }
