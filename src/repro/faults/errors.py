"""Media-level error types raised by the fault-injection subsystem.

Real NVMe devices report media failures through command status codes:
an uncorrectable read (UECC) completes the read with *Unrecovered Read
Error*, a failed program completes the write with *Write Fault*, and a
failed erase never surfaces as a host status at all — the controller
retires the block internally and grows the bad-block list.  The
simulator mirrors that split: read and program failures are exceptions
on the host-facing path, while erase failures are absorbed by the FTL
and only visible through the health log and event stream.

The classes are *defined* in :mod:`repro.ssd.errors` — the leaf of the
import graph, so the FTL can raise them without a circular dependency
on this package — and re-exported here as the fault subsystem's public
surface.  They subclass :class:`~repro.ssd.errors.SsdError`, so
existing ``except SsdError`` handlers keep working.
"""

from __future__ import annotations

from ..ssd.errors import (
    DeviceOfflineError,
    MediaError,
    PowerLossError,
    ProgramFailError,
    UncorrectableReadError,
)

__all__ = [
    "MediaError",
    "UncorrectableReadError",
    "ProgramFailError",
    "PowerLossError",
    "DeviceOfflineError",
]
