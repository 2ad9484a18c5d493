"""Busy-clock latency model for the simulated SSD.

The paper reports p99 read/write latency improvements under FDP at high
device utilization (Figures 6 and 13) and attributes them to reduced
interference from garbage collection.  To reproduce that *mechanism*
the simulator uses a single-server busy-clock model:

* The device has one service timeline (``busy_until``, in nanoseconds).
* Every NAND operation — host read/program, GC read/program, erase —
  occupies the timeline for its service time.
* A host command arriving at simulated time ``t`` starts at
  ``max(t, busy_until)``; its latency is completion minus arrival.

GC work is interleaved on the same timeline, so bursts of migrations
push host-op tail latency up exactly the way real GC does.  Absolute
values are loosely calibrated to TLC NAND (reads ~60 us, programs
~600 us, erases ~3 ms) but only the relative shape matters for the
reproduction.

The model is deliberately not a full M/G/1 queue: CacheBench drives the
cache closed-loop, so "arrival" time is the completion time of the
previous request plus host-side think time, which the bench driver
supplies.
"""

from __future__ import annotations

import dataclasses

__all__ = ["NandTimings", "LatencyModel"]

US = 1_000  # nanoseconds per microsecond
MS = 1_000_000

# Operation kinds NandTimings.service_ns prices: host commands, and the
# background spans the FTL and scrubber report to the scheduler.
READ = "read"
WRITE = "write"
TRIM = "trim"
GC_MIGRATE = "gc_migrate"
ERASE = "erase"
SCRUB_SCAN = "scrub_scan"
SCRUB_RELOCATE = "scrub_relocate"
# Background kinds whose zero-page charge is a no-op (an erase always
# costs its fixed time).
_PAGED_BACKGROUND = (GC_MIGRATE, SCRUB_SCAN, SCRUB_RELOCATE)


@dataclasses.dataclass(frozen=True)
class NandTimings:
    """Service times for the primitive NAND operations, in nanoseconds."""

    read_ns: int = 60 * US
    program_ns: int = 600 * US
    erase_ns: int = 3 * MS
    # Per-page transfer/firmware overhead applied to host ops only.
    transfer_ns: int = 10 * US
    # Die/plane parallelism: multi-page operations (sequential region
    # writes, GC migration bursts) stripe across this many NAND units,
    # so a burst occupies the timeline for 1/parallelism of its serial
    # service time.  Single-page operations see full service time.
    parallelism: int = 4

    def __post_init__(self) -> None:
        for name in ("read_ns", "program_ns", "erase_ns", "transfer_ns"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")
        # Per-page cost of each kind.  Host ops add the transfer
        # overhead; a GC migration is a read plus a program; scrub scans
        # and relocations stay inside the controller.  Trims and erases
        # are one fixed cost whatever the page count.
        object.__setattr__(self, "_page_ns", {
            READ: self.read_ns + self.transfer_ns,
            WRITE: self.program_ns + self.transfer_ns,
            TRIM: self.transfer_ns,
            GC_MIGRATE: self.read_ns + self.program_ns,
            ERASE: self.erase_ns,
            SCRUB_SCAN: self.read_ns,
            SCRUB_RELOCATE: self.program_ns,
        })

    def service_ns(self, kind: str, npages: int = 1) -> int:
        """Service time of one ``kind`` operation over ``npages`` pages.

        A multi-page burst stripes across ``parallelism`` NAND units,
        so it takes 1/parallelism of its serial time, but never less
        than one page time.  Raises :class:`KeyError` on an unknown
        kind.
        """
        per_page = self._page_ns[kind]
        if kind == TRIM or kind == ERASE:
            return per_page
        striped = npages * per_page // self.parallelism
        return striped if striped > per_page else per_page


class LatencyModel:
    """Single-timeline service model shared by host and GC operations."""

    __slots__ = ("timings", "busy_until", "busy_ns_total", "_durations")

    def __init__(self, timings: NandTimings | None = None) -> None:
        self.timings = timings or NandTimings()
        self.busy_until = 0
        # Total time the device spent servicing operations; the idle
        # complement feeds the energy model.
        self.busy_ns_total = 0
        self._durations: dict = {}  # service_ns() memo, keyed (kind, npages)

    def service(self, now_ns: int, kind: str, npages: int = 1) -> int:
        """Occupy the timeline for one ``kind`` operation over ``npages``
        pages (:meth:`NandTimings.service_ns`), starting no earlier than
        ``now_ns``; return the completion time.

        A background scan, migration or relocation of zero pages is a
        no-op.  Scrub scans and relocations stay inside the controller
        (no host transfer), and a relocation is only the program half:
        the scan already charged the read.
        """
        busy = self.busy_until
        start = busy if busy > now_ns else now_ns
        if npages == 0 and kind in _PAGED_BACKGROUND:
            return start
        try:
            duration = self._durations[kind, npages]
        except KeyError:
            duration = self._durations[kind, npages] = self.timings.service_ns(kind, npages)
        self.busy_until = end = start + duration
        self.busy_ns_total += duration
        return end

    def stall(self, now_ns: int, duration_ns: int) -> int:
        """Occupy the timeline for an extra, op-shaped delay.

        Used for injected latency spikes (firmware pauses, internal
        housekeeping) that hold the device busy without moving data.
        """
        busy = self.busy_until
        start = busy if busy > now_ns else now_ns
        if duration_ns <= 0:
            return start
        self.busy_until = end = start + duration_ns
        self.busy_ns_total += duration_ns
        return end
