"""Reclaim Unit Handles (RUHs) per NVMe TP4146.

An RUH is a device-controller abstraction — "similar to a pointer" in
the paper's words — that lets host software direct writes into distinct
reclaim units without addressing NAND directly.  The two standardized
RUH types differ only in what the controller may do with the data
*during garbage collection*:

* ``INITIALLY_ISOLATED`` — data written through different RUHs starts in
  different RUs, but GC may intermix surviving valid data across RUHs
  (within a reclaim group).  Cheap to implement; the paper's device has
  8 of these, and Insight 5 argues they suffice for CacheLib.
* ``PERSISTENTLY_ISOLATED`` — GC keeps data written through one RUH
  separate forever.  Stronger guarantee, costlier controller.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import namedtuple

__all__ = ["RuhType", "RuhDescriptor", "PlacementIdentifier"]


class RuhType(enum.Enum):
    """Isolation guarantee an RUH provides across garbage collection."""

    INITIALLY_ISOLATED = 1
    PERSISTENTLY_ISOLATED = 2


@dataclasses.dataclass(frozen=True)
class RuhDescriptor:
    """One reclaim unit handle as advertised by the controller."""

    ruh_id: int
    ruh_type: RuhType

    def __post_init__(self) -> None:
        if self.ruh_id < 0:
            raise ValueError("ruh_id must be non-negative")


class PlacementIdentifier(namedtuple("_Pid", "reclaim_group ruh_id")):
    """<reclaim group, RUH> pair — the PID of the FDP specification.

    Write commands carry a PID (encoded in the NVMe DSPEC field); the
    controller resolves it to the reclaim unit currently referenced by
    that RUH within that reclaim group.  A tuple, so hashing one (every
    write looks its PID up) enters no Python frame.
    """

    __slots__ = ()

    def __new__(cls, reclaim_group: int, ruh_id: int) -> "PlacementIdentifier":
        if reclaim_group < 0:
            raise ValueError("reclaim_group must be non-negative")
        if ruh_id < 0:
            raise ValueError("ruh_id must be non-negative")
        return super().__new__(cls, reclaim_group, ruh_id)

    def dspec(self, num_ruhs: int) -> int:
        """Encode as a flat directive-specific value (DSPEC).

        Real controllers pack <RG, RUH-index> into the 16-bit DSPEC
        field of the write command; the simulator uses the same flat
        encoding so the I/O layer round-trips through an integer just
        as the kernel passthru path does.
        """
        if self.ruh_id >= num_ruhs:
            raise ValueError("ruh_id out of range for this configuration")
        return self.reclaim_group * num_ruhs + self.ruh_id

    @classmethod
    def from_dspec(cls, dspec: int, num_ruhs: int) -> "PlacementIdentifier":
        """Decode a flat DSPEC value back into a PID."""
        if dspec < 0:
            raise ValueError("dspec must be non-negative")
        if num_ruhs <= 0:
            raise ValueError("num_ruhs must be positive")
        return cls(reclaim_group=dspec // num_ruhs, ruh_id=dspec % num_ruhs)
