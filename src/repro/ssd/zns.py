"""Zoned Namespaces (ZNS) device mode, for the Table 1 comparison.

The paper contrasts FDP with ZNS (Section 3.4, Table 1): ZNS achieves
"impressive DLWA" by construction — the device does no garbage
collection at all — but its append-only zones push garbage collection
*into the host*, which is the software-engineering cost that hindered
adoption.  To let the repository measure that trade instead of just
stating it, this module provides:

* :class:`ZonedSSD` — zones map to superblocks; writes are append-only
  at each zone's write pointer; the host must explicitly reset zones.
  Device DLWA is identically 1 (there is nothing for the device to
  move), which the tests assert.
* :class:`ZnsHostLog` — a minimal host-side log store over zones for
  update-in-place workloads (what a ZNS flash cache's SOC would need):
  updates append, and a greedy host GC compacts the emptiest full zone.
  Its *host* copy traffic is exactly the write amplification that FDP
  leaves inside the device — the extension bench shows the WAF moves
  between layers rather than disappearing.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from .errors import DeviceFullError, OutOfRangeError, SsdError
from .geometry import Geometry
from .latency import ERASE, READ, WRITE, LatencyModel
from .stats import DeviceStats

__all__ = ["ZoneState", "Zone", "ZonedSSD", "ZnsHostLog", "ZoneError"]


class ZoneError(SsdError):
    """A zone-state rule was violated (overwrite, bad append, ...)."""


class ZoneState(enum.Enum):
    EMPTY = "empty"
    OPEN = "open"
    FULL = "full"


class Zone:
    """One zone: a superblock-sized append-only region."""

    __slots__ = ("zone_id", "state", "write_pointer", "capacity", "resets")

    def __init__(self, zone_id: int, capacity: int) -> None:
        self.zone_id = zone_id
        self.state = ZoneState.EMPTY
        self.write_pointer = 0
        self.capacity = capacity
        self.resets = 0

    @property
    def remaining(self) -> int:
        return self.capacity - self.write_pointer


class ZonedSSD:
    """An append-only zoned device over the shared geometry.

    The LBA space is partitioned into zones of one superblock each.
    There is no FTL mapping and no device GC: the zone abstraction
    makes placement explicit and the host owns reclamation, exactly the
    ZNS column of Table 1.
    """

    def __init__(self, geometry: Geometry) -> None:
        self.geometry = geometry
        self.zone_pages = geometry.pages_per_superblock
        self.num_zones = geometry.num_superblocks
        self.zones = [Zone(z, self.zone_pages) for z in range(self.num_zones)]
        self.stats = DeviceStats()
        self.latency = LatencyModel()

    def _zone(self, zone_id: int) -> Zone:
        if not 0 <= zone_id < self.num_zones:
            raise OutOfRangeError(f"no zone {zone_id}")
        return self.zones[zone_id]

    # ------------------------------------------------------------------

    def zone_append(
        self, zone_id: int, npages: int = 1, now_ns: int = 0
    ) -> Tuple[int, int]:
        """Append ``npages`` at the zone's write pointer.

        Returns ``(start_lba, completion_ns)``; the device assigns the
        address, as the ZNS append command does.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        zone = self._zone(zone_id)
        if zone.state is ZoneState.FULL:
            raise ZoneError(f"zone {zone_id} is full")
        if npages > zone.remaining:
            raise ZoneError(
                f"append of {npages} pages exceeds zone {zone_id}'s "
                f"remaining {zone.remaining}"
            )
        start_lba = zone.zone_id * self.zone_pages + zone.write_pointer
        zone.write_pointer += npages
        zone.state = (
            ZoneState.FULL if zone.remaining == 0 else ZoneState.OPEN
        )
        self.stats.host_pages_written += npages
        # Device WAF is 1 by construction: NAND writes == host writes.
        self.stats.nand_pages_written += npages
        done = self.latency.service(now_ns, WRITE, npages)
        return start_lba, done

    def read(self, lba: int, npages: int = 1, now_ns: int = 0) -> int:
        """Read pages (validity is the host's business under ZNS)."""
        if npages <= 0:
            raise ValueError("npages must be positive")
        total = self.num_zones * self.zone_pages
        if lba < 0 or lba + npages > total:
            raise OutOfRangeError(f"range [{lba}, {lba + npages}) invalid")
        self.stats.host_pages_read += npages
        return self.latency.service(now_ns, READ, npages)

    def reset_zone(self, zone_id: int, now_ns: int = 0) -> int:
        """Erase a zone; only the host decides when (host GC)."""
        zone = self._zone(zone_id)
        if zone.state is ZoneState.EMPTY:
            return now_ns
        zone.state = ZoneState.EMPTY
        zone.write_pointer = 0
        zone.resets += 1
        self.stats.superblocks_erased += 1
        return self.latency.service(now_ns, ERASE)

    def finish_zone(self, zone_id: int) -> None:
        """Transition an open zone to FULL without filling it."""
        zone = self._zone(zone_id)
        if zone.state is not ZoneState.OPEN:
            raise ZoneError(f"zone {zone_id} is {zone.state.value}")
        zone.state = ZoneState.FULL
        zone.write_pointer = zone.capacity

    def zone_report(self) -> Dict[str, int]:
        """Zone counts by state (the ZNS report command)."""
        report = {state.value: 0 for state in ZoneState}
        for zone in self.zones:
            report[zone.state.value] += 1
        return report

    @property
    def dlwa(self) -> float:
        """Always 1.0 — ZNS devices do not relocate data."""
        return self.stats.dlwa


class ZnsHostLog:
    """Host-side log store over a :class:`ZonedSSD` (update-in-place
    emulation).

    Keys are written by appending; updates invalidate the old location
    in the host's map.  When free zones run low, a greedy host GC picks
    the full zone with the fewest live pages, rewrites them, and resets
    the zone — the host-side work FDP avoids.  ``host_copied_pages`` /
    ``appended_pages`` is this layer's write amplification, directly
    comparable to the FDP device's DLWA.
    """

    def __init__(self, device: ZonedSSD, *, reserve_zones: int = 2) -> None:
        if reserve_zones < 1:
            raise ValueError("reserve_zones must be at least 1")
        self.device = device
        self.reserve_zones = reserve_zones
        self._key_page: Dict[int, int] = {}  # key -> absolute lba
        self._page_key: Dict[int, int] = {}  # absolute lba -> key
        self._free: List[int] = list(range(device.num_zones))
        self._free.reverse()
        self._open: Optional[Zone] = None
        self.appended_pages = 0
        self.host_copied_pages = 0

    def _live_pages(self, zone: Zone) -> List[int]:
        base = zone.zone_id * self.device.zone_pages
        return [
            lba
            for lba in range(base, base + zone.write_pointer)
            if lba in self._page_key
        ]

    def _ensure_open(self, now_ns: int, *, for_gc: bool = False) -> int:
        """Make ``self._open`` a zone with room, running host GC first
        when the reserve is low.

        GC's own appends must not re-enter GC (the reserve exists so a
        compaction in flight always has a destination), and after a GC
        pass the current open zone — possibly replaced during the
        pass — is re-checked rather than abandoned: leaking partially
        filled OPEN zones would silently shrink capacity.
        """
        while self._open is None or self._open.remaining == 0:
            if not for_gc and len(self._free) < self.reserve_zones:
                now_ns = self._host_gc(now_ns)
                continue  # re-check the open zone and the reserve
            if not self._free:
                raise DeviceFullError("no free zones")
            self._open = self.device.zones[self._free.pop()]
        return now_ns

    def _host_gc(self, now_ns: int) -> int:
        """Greedy host compaction of the emptiest full zone."""
        full = [
            z for z in self.device.zones
            if z.state is ZoneState.FULL and z is not self._open
        ]
        if not full:
            raise DeviceFullError("nothing to compact")
        victim = min(full, key=lambda z: len(self._live_pages(z)))
        if len(self._live_pages(victim)) >= victim.write_pointer:
            # Every page in the emptiest zone is live: compaction
            # cannot make net progress — the store is genuinely full.
            raise DeviceFullError(
                "cannot reclaim space: the emptiest zone is fully live"
            )
        for lba in self._live_pages(victim):
            key = self._page_key.pop(lba)
            del self._key_page[key]
            now_ns = self._append(key, now_ns, copied=True)
        now_ns = self.device.reset_zone(victim.zone_id, now_ns)
        self._free.append(victim.zone_id)
        return now_ns

    def _append(self, key: int, now_ns: int, *, copied: bool) -> int:
        now_ns = self._ensure_open(now_ns, for_gc=copied)
        assert self._open is not None
        lba, now_ns = self.device.zone_append(
            self._open.zone_id, 1, now_ns
        )
        self._key_page[key] = lba
        self._page_key[lba] = key
        if copied:
            self.host_copied_pages += 1
        else:
            self.appended_pages += 1
        return now_ns

    # ------------------------------------------------------------------

    def put(self, key: int, now_ns: int = 0) -> int:
        """Write/update one key (one page)."""
        old = self._key_page.pop(key, None)
        if old is not None:
            del self._page_key[old]
        return self._append(key, now_ns, copied=False)

    def get(self, key: int, now_ns: int = 0) -> Tuple[bool, int]:
        lba = self._key_page.get(key)
        if lba is None:
            return False, now_ns
        return True, self.device.read(lba, 1, now_ns)

    @property
    def host_waf(self) -> float:
        """Host write amplification: (appends + copies) / appends."""
        if self.appended_pages == 0:
            return 1.0
        return (
            self.appended_pages + self.host_copied_pages
        ) / self.appended_pages
