"""Latent-error model: read disturb, retention aging, silent corruption.

PR 1's :class:`~repro.faults.model.FaultModel` covers *hard* faults —
the command either completes or it doesn't.  Real NAND degrades more
gradually: every read couples charge into the neighbouring wordlines
(read disturb), retained charge leaks over time at a rate that grows
with the block's accumulated program/erase wear (retention aging), and
a small population of writes lands with errors the controller's ECC
cannot see at program time (silent corruption, caught only by
end-to-end protection info).  This module models all three as a
deterministic function of the simulation's own clocks:

* **Read disturb** — a per-physical-page counter incremented for the
  *neighbours* of every host-read page.  Counters reset when the
  containing superblock is erased, exactly like the physical effect.
* **Retention aging** — the age of a page is the distance between the
  FTL's global sequence clock now and at program time, scaled by
  ``retention_rate`` and accelerated by the block's erase count (see
  :func:`repro.ssd.wear.retention_acceleration`).  No wall-clock time
  is involved, so replays are exactly reproducible.
* **Silent corruption** — a seed-driven per-host-program Bernoulli
  draw plus scripted :data:`~repro.faults.plan.OP_SILENT` plan
  entries.  A corrupted program stores a mutated payload under the
  *original* payload's CRC, so the damage is invisible until some
  layer actually verifies protection info.

The combined error level of a page feeds the read path's ECC outcome
ladder (:data:`OUTCOME_CLEAN` → :data:`OUTCOME_CORRECTABLE` →
:data:`OUTCOME_SOFT_RETRY` → :data:`OUTCOME_UECC`) and the patrol
scrubber's refresh decision.  Like the hard-fault model, everything is
derived from an explicit seed; two runs with the same seed and op
stream observe identical error histories.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .plan import OP_SILENT, FaultPlan, ScriptedFault

# ECC outcome ladder for host reads, in order of increasing severity.
OUTCOME_CLEAN = 0
OUTCOME_CORRECTABLE = 1
OUTCOME_SOFT_RETRY = 2
OUTCOME_UECC = 3

_SILENT_SALT = 0x51_4C_54  # "SLT"


@dataclass(frozen=True)
class LatentErrorConfig:
    """Tuning knobs for the latent-error model.

    Error *levels* are dimensionless: thresholds and rates only need
    to be consistent with each other.  The defaults keep every
    mechanism switched off; a config with all rates at zero and an
    empty plan is "quiescent" — it stamps CRCs and tracks disturb
    counters but never perturbs an outcome, which the differential
    tests rely on.
    """

    seed: int = 0x1A7E
    # Error-level units added to each neighbour per host page read.
    read_disturb_per_read: float = 0.0
    # Error-level units per unit of sequence-clock age (wear-scaled).
    retention_rate: float = 0.0
    # Strength of wear acceleration: level scales by
    # (1 + wear_factor * erase_count) — see wear.retention_acceleration.
    wear_factor: float = 0.0
    # Probability that a host page program stores corrupt data.
    silent_corruption_rate: float = 0.0
    # Scripted OP_SILENT entries (deterministic corruption placement).
    plan: Tuple[ScriptedFault, ...] = field(default_factory=tuple)
    # Ladder thresholds (strictly increasing).
    correctable_threshold: float = 1.0
    soft_retry_threshold: float = 2.0
    uecc_threshold: float = 4.0
    # Bound on soft-decode re-reads charged for one host read.
    soft_retry_limit: int = 3
    # Extra busy time charged for a correctable (in-ECC) read.
    correctable_penalty_ns: int = 25_000

    def __post_init__(self) -> None:
        for name in ("read_disturb_per_read", "retention_rate", "wear_factor"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.silent_corruption_rate <= 1.0:
            raise ValueError(
                "silent_corruption_rate must be in [0, 1], "
                f"got {self.silent_corruption_rate}"
            )
        if not (
            0.0
            < self.correctable_threshold
            < self.soft_retry_threshold
            < self.uecc_threshold
        ):
            raise ValueError(
                "thresholds must satisfy 0 < correctable < soft_retry < uecc, got "
                f"({self.correctable_threshold}, {self.soft_retry_threshold}, "
                f"{self.uecc_threshold})"
            )
        if self.soft_retry_limit < 1:
            raise ValueError(f"soft_retry_limit must be >= 1, got {self.soft_retry_limit}")
        if self.correctable_penalty_ns < 0:
            raise ValueError("correctable_penalty_ns must be >= 0")
        object.__setattr__(self, "plan", tuple(self.plan))
        for entry in self.plan:
            if entry.op != OP_SILENT:
                raise ValueError(
                    f"latent-error plans accept only {OP_SILENT!r} entries, "
                    f"got {entry.op!r}"
                )

    @property
    def any_enabled(self) -> bool:
        """True when any mechanism can actually perturb an outcome."""
        return bool(
            self.read_disturb_per_read
            or self.retention_rate
            or self.silent_corruption_rate
            or self.plan
        )


class LatentErrorModel:
    """Runtime state for one device's latent errors.

    The FTL owns one instance per device lifetime and calls
    :meth:`bind` with its geometry before use; :meth:`bind` is also
    how ``format()`` resets the media history.  All randomness lives
    in a single private stream salted off the config seed, consumed
    only by silent-corruption draws — disturb and retention are pure
    functions of the op history, so a quiescent model makes no draws
    at all.
    """

    __slots__ = (
        "config",
        "plan",
        "_rng",
        "_disturb",
        "_pps",
        "host_program_ops",
        "corruptions_injected",
    )

    def __init__(self, config: LatentErrorConfig) -> None:
        self.config = config
        self.plan = FaultPlan(config.plan)
        self._rng = random.Random((config.seed << 4) ^ _SILENT_SALT)
        self._disturb: array | None = None
        self._pps = 0
        # Counts host page programs (the plan's op_index domain).
        self.host_program_ops = 0
        self.corruptions_injected = 0

    def bind(self, total_pages: int, pages_per_superblock: int) -> None:
        """Attach to (or re-format under) a device geometry."""
        self._disturb = array("I", bytes(4 * total_pages))
        self._pps = pages_per_superblock

    # -- read disturb -------------------------------------------------

    def note_read(self, ppn: int) -> None:
        """A host read of ``ppn`` disturbs its wordline neighbours."""
        disturb = self._disturb
        if disturb is None:
            return
        base = (ppn // self._pps) * self._pps
        if ppn > base:
            disturb[ppn - 1] += 1
        if ppn + 1 < base + self._pps:
            disturb[ppn + 1] += 1

    def disturb_count(self, ppn: int) -> int:
        return 0 if self._disturb is None else self._disturb[ppn]

    def on_erase(self, base_ppn: int, npages: int) -> None:
        """Erasing a superblock resets its disturb counters."""
        if self._disturb is not None:
            self._disturb[base_ppn : base_ppn + npages] = array("I", bytes(4 * npages))

    # -- error level + ladder -----------------------------------------

    def error_level(self, ppn: int, age_seq: int, acceleration: float) -> float:
        """Raw bit-error level of a page, in threshold units.

        ``age_seq`` is the FTL sequence-clock distance since the page
        was programmed; ``acceleration`` is the wear multiplier from
        :func:`repro.ssd.wear.retention_acceleration` for the block
        holding the page.
        """
        cfg = self.config
        level = cfg.retention_rate * age_seq * acceleration
        if cfg.read_disturb_per_read and self._disturb is not None:
            level += cfg.read_disturb_per_read * self._disturb[ppn]
        return level

    def classify(self, level: float) -> int:
        """Map an error level onto the ECC outcome ladder."""
        cfg = self.config
        if level < cfg.correctable_threshold:
            return OUTCOME_CLEAN
        if level < cfg.soft_retry_threshold:
            return OUTCOME_CORRECTABLE
        if level < cfg.uecc_threshold:
            return OUTCOME_SOFT_RETRY
        return OUTCOME_UECC

    def soft_retries_for(self, level: float) -> int:
        """Bounded number of re-reads a soft decode costs."""
        cfg = self.config
        excess = level - cfg.soft_retry_threshold
        return min(cfg.soft_retry_limit, 1 + int(excess))

    # -- silent corruption --------------------------------------------

    def corrupt_program(self, lba: int) -> bool:
        """Decide whether this host page program stores corrupt data.

        Mirrors the hard-fault model's draw-before-plan-check pattern
        so scripted entries never perturb the random stream.
        """
        self.host_program_ops += 1
        rate = self.config.silent_corruption_rate
        rolled = bool(rate) and self._rng.random() < rate
        if rolled or self.plan.take(
            OP_SILENT, lba=lba, op_index=self.host_program_ops
        ):
            self.corruptions_injected += 1
            return True
        return False

    @staticmethod
    def corrupted(payload: object) -> object:
        """Media content stored by a silently corrupted program.

        The mutation wraps the original payload so it never compares
        equal to what the host wrote, while the OOB record keeps the
        *original* CRC — the corruption is invisible until some layer
        verifies protection info.
        """
        return ("~bitrot", payload)

    @property
    def corrupts_writes(self) -> bool:
        """True when :meth:`corrupt_program` must see every host page.

        The FTL reads this once, at construction: a model that can
        corrupt programs makes every host page a one-page chunk, while
        a quiescent one leaves whole-superblock chunks alone and has
        :attr:`host_program_ops` advanced by their page counts.
        """
        return bool(self.config.silent_corruption_rate) or bool(len(self.plan))

    @property
    def injection_totals(self) -> Dict[str, int]:
        return {
            "host_program_ops": self.host_program_ops,
            "silent_corruptions": self.corruptions_injected,
        }
