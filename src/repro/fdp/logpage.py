"""FDP statistics log page (NVMe TP4146).

The spec's FDP Statistics log reports host bytes written with an FDP
placement directive, media bytes written, and media bytes read by the
controller for GC.  The paper computes DLWA by polling exactly this
kind of log through ``nvme get-log`` every 10 minutes.  The simulator
builds the page from the live :class:`~repro.ssd.stats.DeviceStats`.
"""

from __future__ import annotations

import dataclasses

__all__ = ["FdpStatisticsLogPage"]


@dataclasses.dataclass(frozen=True)
class FdpStatisticsLogPage:
    """Point-in-time FDP statistics, in bytes (spec reports bytes)."""

    host_bytes_with_metadata: int
    media_bytes_written: int
    media_bytes_read_for_gc: int

    def __post_init__(self) -> None:
        for name in (
            "host_bytes_with_metadata",
            "media_bytes_written",
            "media_bytes_read_for_gc",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def dlwa(self) -> float:
        """Device write amplification derived from the log page."""
        if self.host_bytes_with_metadata == 0:
            return 1.0
        return self.media_bytes_written / self.host_bytes_with_metadata
