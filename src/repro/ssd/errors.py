"""Exception hierarchy for the simulated SSD.

Mirrors the failure classes a real NVMe device reports: capacity
exhaustion, out-of-range LBAs, invalid placement directives, and —
when fault injection is enabled — media failures (uncorrectable reads,
program faults, erase failures).  The media classes live here, at the
bottom of the import graph, and are re-exported by
:mod:`repro.faults.errors` as the fault subsystem's public surface.

Raise sites are expected to enrich messages with live context (free
pool size, GC reserve, offending PID vs. advertised handles) so a
failed chaos run is debuggable from its traceback alone.
"""

from __future__ import annotations

__all__ = [
    "SsdError",
    "OutOfRangeError",
    "DeviceFullError",
    "InvalidPlacementError",
    "MediaError",
    "UncorrectableReadError",
    "ProgramFailError",
    "PowerLossError",
    "DeviceOfflineError",
    "QueueFullError",
]


class SsdError(Exception):
    """Base class for simulated-device errors."""


class OutOfRangeError(SsdError):
    """An LBA outside the namespace's advertised range was addressed."""


class DeviceFullError(SsdError):
    """No free superblock is available even after garbage collection.

    A correctly sized device can always reclaim space because logical
    capacity is smaller than physical capacity; seeing this error means
    the configuration reserved too few spare superblocks for the number
    of concurrently open write points — or that fault injection retired
    so many blocks that effective overprovisioning ran out.  The
    message carries the free-pool size, GC reserve, and retired-block
    count observed at the raise site.
    """


class InvalidPlacementError(SsdError):
    """A write used a placement identifier the device did not advertise.

    The message names the offending <reclaim group, RUH> pair and what
    the device's FDP configuration actually advertises.
    """


class MediaError(SsdError):
    """Base class for NAND media failures (as opposed to protocol or
    capacity errors).  Callers that degrade gracefully — the cache
    engines, the device layer's retry loop — catch this class."""


class UncorrectableReadError(MediaError):
    """A read hit an uncorrectable ECC error (NVMe *Unrecovered Read
    Error*).  May be transient: controllers re-read with adjusted
    voltage thresholds, which the device layer models as a bounded
    retry with backoff."""

    def __init__(self, message: str, *, lba: int = -1, ppn: int = -1) -> None:
        super().__init__(message)
        self.lba = lba
        self.ppn = ppn


class ProgramFailError(MediaError):
    """A page program failed persistently (NVMe *Write Fault*).

    The FTL retries a failed program on the next page of the write
    point; this exception only escapes when a whole run of consecutive
    pages failed, which on a real device means the die is dying.
    """

    def __init__(self, message: str, *, lba: int = -1, attempts: int = 0) -> None:
        super().__init__(message)
        self.lba = lba
        self.attempts = attempts


class PowerLossError(SsdError):
    """Power failed while a host write command was in flight.

    Deliberately *not* a :class:`MediaError`: the graceful-degradation
    handlers in the cache engines and the device layer's retry loop
    catch ``MediaError`` and keep serving, which is exactly wrong for a
    power cut — there is no device left to retry against.  This class
    propagates to whoever orchestrates recovery.

    ``pages_durable`` leading pages of the command reached the media
    before the cut; the rest (including the page that was mid-program)
    are gone.  The command was never acknowledged.
    """

    def __init__(
        self,
        message: str,
        *,
        lba: int = -1,
        npages: int = 0,
        pages_durable: int = 0,
        now_ns: int = 0,
    ) -> None:
        super().__init__(message)
        self.lba = lba
        self.npages = npages
        self.pages_durable = pages_durable
        self.now_ns = now_ns


class DeviceOfflineError(SsdError):
    """I/O was submitted to a device that lost power.

    Raised by every host-facing operation between
    :meth:`~repro.ssd.device.SimulatedSSD.power_cut` and
    :meth:`~repro.ssd.device.SimulatedSSD.recover`.
    """


class QueueFullError(SsdError):
    """A submission queue's outstanding window is exhausted.

    Raised by :meth:`~repro.ssd.device.SimulatedSSD.submit_async` when
    the target queue already holds ``queue_depth`` unpolled commands —
    the same backpressure a full NVMe SQ exerts.  The host must
    :meth:`~repro.ssd.device.SimulatedSSD.poll` completions before
    submitting more; no device state changed.

    Carries the saturated queue's name and configured depth as
    structured attributes so layers above (the fleet shard translation,
    the load governor) can attribute backpressure to a specific queue
    without parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        queue: str = "",
        depth: int = 0,
    ) -> None:
        super().__init__(message)
        self.queue = queue
        self.depth = depth
