"""Placement handles and their allocator (paper Sections 5.2-5.3).

The paper's upstreamed CacheLib change introduces an abstract
*placement handle* on the SSD I/O path: consuming modules (the SOC and
LOC engines) request handles at initialization and tag their writes
with them, without knowing anything about FDP.  A *placement handle
allocator* owns the mapping from handles to FDP placement identifiers
(<RUH, RG> pairs):

* If FDP is enabled in the cache config *and* the device supports FDP,
  each allocation binds a fresh PID (until the device's handles are
  exhausted, after which allocation falls back to the default handle —
  the device would otherwise reject the directive).
* If either side has FDP off, every allocation returns the *default
  handle*, meaning "no placement preference" — the exact backward-
  compatibility behaviour that let the patch merge upstream (Design
  Principle 2).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, List, Optional

from ..fdp.ruh import PlacementIdentifier

__all__ = ["PlacementHandle", "DEFAULT_HANDLE", "PlacementHandleAllocator"]


@dataclasses.dataclass(frozen=True)
class PlacementHandle:
    """Opaque token a module attaches to its writes.

    ``pid`` is ``None`` for the default handle (no placement
    preference); consumers never inspect it — only the FDP-aware device
    layer translates it (hardware extensibility, Design Principle 4).
    """

    handle_id: int
    name: str
    pid: Optional[PlacementIdentifier] = None

    @property
    def is_default(self) -> bool:
        """True when this handle expresses no placement preference."""
        return self.pid is None


DEFAULT_HANDLE = PlacementHandle(handle_id=0, name="default", pid=None)


class PlacementHandleAllocator:
    """Hands out placement handles backed by the device's FDP PIDs.

    Parameters
    ----------
    available_pids:
        The placement identifiers the device advertises (empty or
        ``None`` when FDP is unsupported or disabled).
    enable_placement:
        The cache-side switch; ``False`` forces default handles even on
        an FDP-capable device (the paper's Non-FDP configuration).

    Allocation skips PID <RG 0, RUH 0>, so minor consumers (metadata)
    that write without a directive — landing on the device's default
    RUH — do not share a reclaim unit with a segregated stream.  That
    matches the paper's allocator, which leaves the default RUH to
    modules with no stated preference.
    """

    def __init__(
        self,
        available_pids: Optional[List[PlacementIdentifier]] = None,
        *,
        enable_placement: bool = True,
    ) -> None:
        pids = [
            p
            for p in available_pids or []
            if not (p.reclaim_group == 0 and p.ruh_id == 0)
        ]
        self._pids: Iterator[PlacementIdentifier] = iter(pids)
        self._num_pids = len(pids)
        self._enabled = enable_placement and self._num_pids > 0
        self._next_id = itertools.count(1)
        self.allocated: List[PlacementHandle] = []
        self.exhausted_allocations = 0

    @property
    def placement_enabled(self) -> bool:
        """Whether allocations can still bind real placement ids."""
        return self._enabled

    def allocate(self, name: str) -> PlacementHandle:
        """Allocate a handle for a consuming module.

        Returns a PID-backed handle while device handles remain, else
        the default handle (and counts the exhaustion, which operators
        can alert on).
        """
        if self._enabled:
            pid = next(self._pids, None)
            if pid is not None:
                handle = PlacementHandle(
                    handle_id=next(self._next_id), name=name, pid=pid
                )
                self.allocated.append(handle)
                return handle
            self.exhausted_allocations += 1
        return DEFAULT_HANDLE

    def default(self) -> PlacementHandle:
        """The no-preference handle, for minor consumers like metadata."""
        return DEFAULT_HANDLE
