"""FDP event log (NVMe TP4146 section: FDP Events).

The spec defines host- and controller-sourced events that let the host
observe placement outcomes: media relocations (GC moved data the host
wrote), reclaim-unit switches (an RU filled and the RUH now references a
fresh one), and implicit RU modifications.  The paper uses the *Media
Relocated* event count to compare GC activity between FDP and Non-FDP
runs at equal host writes (Figure 10b).

The simulator keeps a bounded ring of recent event records plus
unbounded per-type counters, matching how hosts actually consume the
log (poll counters, optionally drain recent entries).
"""

from __future__ import annotations

import collections
import enum
from typing import Deque, Dict, List, NamedTuple, Optional

__all__ = ["FdpEventType", "FdpEvent", "FdpEventLog"]


class FdpEventType(enum.Enum):
    """Event types relevant to placement feedback."""

    RU_NOT_FULLY_WRITTEN = "ru_not_fully_written"
    RU_TIME_LIMIT_EXCEEDED = "ru_time_limit_exceeded"
    CTRL_RESET_RU = "controller_reset_ru"
    INVALID_PLACEMENT_ID = "invalid_placement_id"
    MEDIA_RELOCATED = "media_relocated"
    RU_SWITCHED = "ru_switched"
    IMPLICIT_RU_MODIFICATION = "implicit_ru_modification"
    # Media failure surfaced by the fault-injection subsystem: a UECC
    # read, a failed program, or a failed erase (block retirement).
    MEDIA_ERROR = "media_error"
    # Crash-consistency lifecycle: the controller lost power (volatile
    # state gone, in-flight host writes torn) and later completed its
    # power-on L2P rebuild.  ``pages`` on RECOVERY_COMPLETE carries the
    # number of recovered mappings.
    POWER_LOSS = "power_loss"
    RECOVERY_COMPLETE = "recovery_complete"
    # Patrol-scrub lifecycle: SCRUB marks one completed patrol pass
    # over the CLOSED superblocks (``pages`` = pages verified during
    # the pass); SCRUB_RELOCATION marks refresh relocations out of one
    # superblock (``pages`` = pages rewritten, ``ruh_id``/
    # ``reclaim_group`` the RUH-respecting destination stream).
    SCRUB = "scrub"
    SCRUB_RELOCATION = "scrub_relocation"

    # Identity hashing (members are singletons): no Python-level hash.
    __hash__ = object.__hash__


class FdpEvent(NamedTuple):
    """One log entry.

    ``pages`` carries the amount of data involved (e.g., pages migrated
    for MEDIA_RELOCATED); ``ruh_id``/``reclaim_group`` identify the
    placement context when known.  A named tuple, built in one step
    (GC records one or two per pass).
    """

    event_type: FdpEventType
    timestamp_ns: int
    pages: int = 0
    ruh_id: Optional[int] = None
    reclaim_group: Optional[int] = None
    superblock: Optional[int] = None


class FdpEventLog:
    """Bounded ring of events with cumulative per-type counters."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._ring: Deque[FdpEvent] = collections.deque(maxlen=capacity)
        self._counts: Dict[FdpEventType, int] = {
            t: 0 for t in FdpEventType
        }
        self._pages: Dict[FdpEventType, int] = {t: 0 for t in FdpEventType}

    def record(self, event: FdpEvent) -> None:
        """Append an event and bump its counters."""
        self._ring.append(event)
        self._counts[event.event_type] += 1
        self._pages[event.event_type] += event.pages

    def count(self, event_type: FdpEventType) -> int:
        """Cumulative number of events of one type (never truncated)."""
        return self._counts[event_type]

    @property
    def media_relocated_events(self) -> int:
        """GC relocation count — Figure 10b's comparison metric."""
        return self._counts[FdpEventType.MEDIA_RELOCATED]

    @property
    def media_relocated_pages(self) -> int:
        """Total pages moved by GC."""
        return self._pages[FdpEventType.MEDIA_RELOCATED]

    def recent(self, n: Optional[int] = None) -> List[FdpEvent]:
        """The most recent ``n`` events (all retained ones if omitted)."""
        events = list(self._ring)
        if n is None:
            return events
        if n < 0:
            raise ValueError("n must be non-negative")
        return events[-n:] if n else []
