"""Scripted fault plans: deterministic, targeted failure injection.

Probabilistic rates (see :mod:`repro.faults.model`) exercise the retry
and degradation machinery statistically, but reproducing a specific
failure scenario — "the erase of superblock 7 fails at its 3rd cycle",
"the first five reads of LBA 100 return UECC" — needs scripting.  A
:class:`FaultPlan` is an ordered collection of :class:`ScriptedFault`
entries that the :class:`~repro.faults.model.FaultModel` overlays on
its probabilistic rolls (the per-class RNG draw happens regardless, so
a scripted firing never shifts the probabilistic stream); each entry
fires a bounded number of times and is then spent.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Optional, Tuple

__all__ = [
    "ScriptedFault",
    "FaultPlan",
    "OP_READ",
    "OP_PROGRAM",
    "OP_ERASE",
    "OP_POWER",
    "OP_SILENT",
]

OP_READ = "read"
OP_PROGRAM = "program"
OP_ERASE = "erase"
# Power loss scripted against the host page-program counter: the cut
# fires *during* the Nth host page program, tearing that command.
OP_POWER = "power_loss"
# Silent corruption scripted against the latent-error model's host
# page-program counter: the Nth host page program stores corrupt data
# under the original payload's CRC (see repro.faults.latent).
OP_SILENT = "silent_corruption"

_VALID_OPS = (OP_READ, OP_PROGRAM, OP_ERASE, OP_POWER, OP_SILENT)


@dataclasses.dataclass(frozen=True)
class ScriptedFault:
    """One scripted failure.

    Parameters
    ----------
    op:
        ``"read"``, ``"program"``, or ``"erase"`` — which operation
        class the entry targets.
    superblock:
        For erase faults: the superblock whose erase fails.  ``None``
        matches any superblock.
    cycle:
        For erase faults: fail only the superblock's Nth erase attempt
        (1-based, counting from device creation).  ``None`` matches the
        next attempt.
    lba:
        For read/program faults: fail operations touching this LBA.
    op_index:
        Fail the Nth operation of this class (1-based, per-class
        counter).  Combines with ``lba`` conjunctively.  Power-loss
        entries count *host* page programs, so a plan can script "cut
        the power during the 5000th host page".
    times:
        How many matching operations fail before the entry is spent
        (default 1).  Repeated read failures at one LBA are how a test
        exhausts the device layer's bounded retries.
    """

    op: str
    superblock: Optional[int] = None
    cycle: Optional[int] = None
    lba: Optional[int] = None
    op_index: Optional[int] = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.op not in _VALID_OPS:
            raise ValueError(f"op must be one of {_VALID_OPS}, got {self.op!r}")
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.op == OP_ERASE and self.lba is not None:
            raise ValueError("erase faults target superblocks, not LBAs")
        if self.op != OP_ERASE and (
            self.superblock is not None or self.cycle is not None
        ):
            raise ValueError("superblock/cycle only apply to erase faults")
        if self.op == OP_POWER:
            if self.lba is not None:
                raise ValueError(
                    "power-loss faults target host program indices, not LBAs"
                )
            if self.times != 1:
                raise ValueError(
                    "a power-loss entry fires once; script several entries "
                    "for several cuts"
                )

    def matches(
        self,
        op: str,
        *,
        superblock: Optional[int] = None,
        cycle: Optional[int] = None,
        lba: Optional[int] = None,
        op_index: Optional[int] = None,
    ) -> bool:
        """Whether this entry fires for the described operation."""
        if op != self.op:
            return False
        if self.superblock is not None and superblock != self.superblock:
            return False
        if self.cycle is not None and cycle != self.cycle:
            return False
        if self.lba is not None and lba != self.lba:
            return False
        if self.op_index is not None and op_index != self.op_index:
            return False
        return True


class FaultPlan:
    """An ordered set of scripted faults with per-entry firing budgets."""

    def __init__(self, faults: Iterable[ScriptedFault] = ()) -> None:
        self._entries: List[ScriptedFault] = list(faults)
        self._remaining: List[int] = [f.times for f in self._entries]
        self._ops = frozenset(f.op for f in self._entries)
        self.fired = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def pending(self) -> int:
        """Scripted firings not yet consumed."""
        return sum(self._remaining)

    def has(self, op: str) -> bool:
        """Whether any entry (live or spent) targets this op class.

        Cheap pre-check for per-operation hot paths: the FTL skips the
        power-loss plan walk entirely when no cut is scripted.
        """
        return op in self._ops

    def take(
        self,
        op: str,
        *,
        superblock: Optional[int] = None,
        cycle: Optional[int] = None,
        lba: Optional[int] = None,
        op_index: Optional[int] = None,
    ) -> bool:
        """Consume one firing of the first matching live entry.

        Returns ``True`` (and decrements that entry's budget) when a
        scripted fault applies to the described operation.
        """
        for i, entry in enumerate(self._entries):
            if self._remaining[i] <= 0:
                continue
            if entry.matches(
                op,
                superblock=superblock,
                cycle=cycle,
                lba=lba,
                op_index=op_index,
            ):
                self._remaining[i] -= 1
                self.fired += 1
                return True
        return False

    def snapshot(self) -> Tuple[Tuple[ScriptedFault, int], ...]:
        """(entry, remaining-budget) pairs, for diagnostics."""
        return tuple(zip(self._entries, self._remaining))
