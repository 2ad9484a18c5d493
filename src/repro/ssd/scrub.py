"""Background patrol scrubber: verify, refresh, retire.

Enterprise SSDs do not wait for the host to discover latent errors:
the controller continuously *patrols* the media in the background,
reading every programmed page, verifying its protection info, and
rewriting ("refreshing") pages whose raw bit-error level has drifted
toward the ECC cliff.  Blocks that keep producing corrupt pages get
retired.  For an FDP cache this matters doubly — the LOC's cold
regions are exactly the long-resident, rarely rewritten data most
exposed to retention drift, and a naive scrubber that relocated them
through a shared write point would re-intermix what placement so
carefully separated.

This module implements that loop over the simulated device:

* The scrubber runs on the device's **busy clock**: host commands
  poll :meth:`PatrolScrubber.maybe_step`, and once ``interval_ns`` of
  simulated time has passed the scrubber scans the next CLOSED
  superblock in index order (wrapping marks a completed *pass* and
  emits a ``SCRUB`` event).  There is no wall-clock anywhere, so runs
  replay deterministically.
* Every valid page is patrol-read (striped raw-NAND read time, no
  host transfer) and its OOB CRC verified.  A mismatch is detected
  corruption: the page is poisoned through the FTL's quarantine path
  and counted against its block.
* Pages whose latent error level crosses ``refresh_threshold`` are
  relocated through the FTL's **GC stream for the victim's RUH** —
  the same placement rule GC uses — so scrub traffic never
  re-intermixes streams that placement separated.  Relocations are
  device writes: they charge program latency and count in
  ``nand_pages_written`` (and therefore DLWA and energy).
* A block accumulating ``retire_after_failures`` detected-corrupt
  pages is drained (remaining valid pages relocated), unlinked the way
  GC unlinks an erase victim, and retired in place like a block whose
  erase failed.

Like GC, scrub maintenance is modeled as capacitor-backed (DESIGN.md
§9): a power cut never tears a relocation program, and because the
source page is not erased by the move, recovery always finds at least
one intact, CRC-carrying copy — the newest sequence number wins.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..fdp.events import FdpEvent, FdpEventType
from .errors import MediaError
from .latency import SCRUB_RELOCATE, SCRUB_SCAN
from .recovery import payload_crc
from .superblock import Superblock, SuperblockState
from .wear import retention_acceleration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .ftl import Ftl
    from .stats import DeviceStats

__all__ = ["ScrubConfig", "ScrubStatus", "PatrolScrubber"]

MS = 1_000_000


@dataclasses.dataclass(frozen=True)
class ScrubConfig:
    """Patrol policy knobs.

    ``interval_ns`` paces the patrol on the simulated clock: one
    superblock is scanned per interval, so a full pass over a device
    with N closed superblocks takes about N intervals of busy time.
    ``refresh_threshold`` is compared against the latent-error model's
    error level (same dimensionless units as the ECC ladder
    thresholds) and should sit below the correctable threshold —
    refresh is cheap insurance, not error handling.
    """

    interval_ns: int = 50 * MS
    refresh_threshold: float = 0.6
    # Detected-corrupt pages a block may produce before it is retired.
    retire_after_failures: int = 4
    # Relocations are skipped (deferred to a later pass) when the free
    # pool would drop below this many superblocks — the scrubber must
    # never starve host allocations or recurse into GC.
    min_free_superblocks: int = 2

    def __post_init__(self) -> None:
        if self.interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        if self.refresh_threshold <= 0.0:
            raise ValueError("refresh_threshold must be positive")
        if self.retire_after_failures < 1:
            raise ValueError("retire_after_failures must be >= 1")
        if self.min_free_superblocks < 1:
            raise ValueError("min_free_superblocks must be >= 1")


@dataclasses.dataclass(frozen=True)
class ScrubStatus:
    """Progress snapshot for telemetry (``nvme scrub-status``)."""

    enabled: bool
    interval_ns: int
    refresh_threshold: float
    next_due_ns: int
    cursor: int
    passes_completed: int
    pages_scanned: int
    pages_relocated: int
    corrupt_detected: int
    blocks_retired: int
    relocations_deferred: int
    # ((reclaim_group, ruh_id-or-None), relocated-pages) per GC
    # destination stream, sorted — the per-RUH breakdown.
    relocated_by_ruh: Tuple[Tuple[Tuple[int, Optional[int]], int], ...] = ()


def _live_pages(ftl: "Ftl", sb: Superblock):
    """Yield ``(ppn, lba, oob_record)`` for each page of ``sb``'s
    programmed prefix that still holds live data when it is reached."""
    base = sb.index * ftl._pps
    for ppn in range(base, base + sb.write_ptr):
        lba = ftl._p2l[ppn]
        if lba < 0 or ftl._l2p[lba] != ppn:
            continue
        rec = ftl._oob[ppn]
        if rec is not None:
            yield ppn, lba, rec


class PatrolScrubber:
    """Background patrol loop over one device's CLOSED superblocks.

    Owns only policy and progress state; all mapping mutations go
    through the owning :class:`~repro.ssd.ftl.Ftl`'s primitives
    (``_poison_page``, ``_program_moved``, and ``_unlink``, which GC's
    erase path uses too), so FTL invariants hold after every step.
    Scans and relocations are charged to both clocks through
    ``Ftl._charge``, like GC's migrations and erases.
    """

    def __init__(self, config: Optional[ScrubConfig] = None) -> None:
        if config is None:
            config = ScrubConfig()
        elif not isinstance(config, ScrubConfig):
            raise TypeError(
                f"expected ScrubConfig or None, got {type(config).__name__}"
            )
        self.config = config
        self.next_due_ns = config.interval_ns
        # Next superblock index to scan (patrol order = index order).
        self.cursor = 0
        self.corrupt_detected = 0
        self.relocations_deferred = 0
        # Detected-corrupt pages per block index (retirement counter).
        self.block_failures: Dict[int, int] = {}
        # Relocated pages per GC destination (rg, ruh_id-or-None).
        self.relocated_by_ruh: Dict[Tuple[int, Optional[int]], int] = {}
        self._pages_this_pass = 0

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------

    def maybe_step(self, ftl: "Ftl", now_ns: int) -> bool:
        """Advance the patrol if an interval has elapsed on the clock.

        Called from the host I/O entry points; uses the device's busy
        horizon (or the caller's ``now_ns``, whichever is later) as
        "now", so an idle device with stalled callers does not scrub
        ahead of simulated time.  Returns whether a step ran.
        """
        now = ftl.latency.busy_until
        if now_ns > now:
            now = now_ns
        if now < self.next_due_ns:
            return False
        self.step(ftl, now)
        # Schedule strictly after both the due point and the work just
        # charged, so a long scan cannot queue a burst of catch-up
        # steps behind one host command.
        self.next_due_ns = (
            max(self.next_due_ns, ftl.latency.busy_until) + self.config.interval_ns
        )
        return True

    def step(self, ftl: "Ftl", now_ns: int) -> None:
        """Scrub the next CLOSED superblock at or after the cursor."""
        closed = ftl._closed
        if not closed:
            return
        pos = bisect_left(closed, self.cursor)
        if pos >= len(closed):
            self._complete_pass(ftl, now_ns)
            pos = 0
        idx = closed[pos]
        self.cursor = idx + 1
        self._scrub_superblock(
            ftl, ftl.superblocks[idx], now_ns, relocate=True
        )

    def _complete_pass(self, ftl: "Ftl", now_ns: int) -> None:
        ftl.stats.scrub_passes += 1
        ftl.events.record(
            FdpEvent(
                FdpEventType.SCRUB,
                timestamp_ns=now_ns,
                pages=self._pages_this_pass,
            )
        )
        self._pages_this_pass = 0
        self.cursor = 0

    def run_full_pass(self, ftl: "Ftl", now_ns: int) -> ScrubStatus:
        """Scrub every CLOSED superblock once, synchronously.

        The programmed prefix of OPEN superblocks is verified too
        (detect/poison only — an open write point is never relocated
        out from under its stream).  Used by the soak
        harness's end-of-run sweep and by ``nvme``-style tooling; the
        background pacing state (``next_due_ns``) is pushed past the
        work so the next polled step does not immediately re-fire.
        """
        # Snapshot: relocation never reopens a CLOSED block, but
        # retirement removes entries from ftl._closed mid-walk.
        for idx in list(ftl._closed):
            sb = ftl.superblocks[idx]
            if sb.state is SuperblockState.CLOSED:
                self._scrub_superblock(ftl, sb, now_ns, relocate=True)
        for sb in list(ftl._write_points.values()):
            self._scrub_superblock(ftl, sb, now_ns, relocate=False)
        self._complete_pass(ftl, now_ns)
        self.next_due_ns = (
            max(self.next_due_ns, ftl.latency.busy_until) + self.config.interval_ns
        )
        return self.status(ftl.stats)

    # ------------------------------------------------------------------
    # one superblock
    # ------------------------------------------------------------------

    def _scrub_superblock(
        self, ftl: "Ftl", sb: Superblock, now_ns: int, *, relocate: bool
    ) -> None:
        lat = ftl.latent
        cfg = self.config
        scanned = 0
        relocated = 0
        dest_stream = None
        for ppn, lba, rec in _live_pages(ftl, sb):
            scanned += 1
            if rec.crc is not None and payload_crc(rec.payload) != rec.crc:
                # Detected silent corruption: quarantine and count it
                # against the block.
                ftl._poison_page(lba, ppn, now_ns)
                self.corrupt_detected += 1
                self.block_failures[sb.index] = (
                    self.block_failures.get(sb.index, 0) + 1
                )
                continue
            if not relocate or lat is None:
                continue
            level = lat.error_level(
                ppn,
                ftl._seq - rec.seq,
                retention_acceleration(sb.erase_count, lat.config.wear_factor),
            )
            if level < cfg.refresh_threshold:
                continue
            if dest_stream is None:
                dest_stream = ftl._gc_stream(sb)
            if self._relocate_page(ftl, sb, dest_stream, lba, ppn, now_ns):
                relocated += 1

        if scanned:
            ftl._charge(SCRUB_SCAN, sb.index, scanned, now_ns)
            ftl.stats.scrub_pages_scanned += scanned
            self._pages_this_pass += scanned
        if relocated:
            # The scan charged the read half; relocation adds programs.
            ftl._charge(SCRUB_RELOCATE, sb.index, relocated, now_ns)
            ftl.events.record(
                FdpEvent(
                    FdpEventType.SCRUB_RELOCATION,
                    timestamp_ns=now_ns,
                    pages=relocated,
                    ruh_id=dest_stream[2],
                    reclaim_group=dest_stream[1],
                    superblock=sb.index,
                )
            )

        if (
            sb.state is SuperblockState.CLOSED
            and self.block_failures.get(sb.index, 0) >= cfg.retire_after_failures
        ):
            self._retire_block(ftl, sb, now_ns)

    def _relocate_page(
        self,
        ftl: "Ftl",
        sb: Superblock,
        dest_stream,
        lba: int,
        ppn: int,
        now_ns: int,
    ) -> bool:
        """Rewrite one aging page through the RUH-respecting GC stream.

        Defers (returns ``False``) rather than relocating when the
        free pool is tight — the patrol must never trigger GC or
        starve a host allocation — or when fault injection fails the
        relocation program itself.
        """
        if (
            ftl._write_points.get(dest_stream) is None
            and len(ftl._free) < self.config.min_free_superblocks
        ):
            self.relocations_deferred += 1
            return False
        try:
            ftl._program_moved(
                dest_stream, np.array([lba], dtype=np.intc), [ppn], now_ns
            )
        except MediaError:
            self.relocations_deferred += 1
            return False
        ftl._release(sb.index)
        key = (dest_stream[1], dest_stream[2])
        self.relocated_by_ruh[key] = self.relocated_by_ruh.get(key, 0) + 1
        # Scrub writes are media writes: they inflate DLWA exactly like
        # GC migrations, which is the cost the integrity soak quantifies.
        ftl.stats.nand_pages_written += 1
        ftl.stats.scrub_pages_relocated += 1
        return True

    def _retire_block(self, ftl: "Ftl", sb: Superblock, now_ns: int) -> None:
        """Drain and retire a block that keeps producing corruption.

        Unlinks the block exactly as GC's erase path does, but the
        block ends RETIRED, so effective overprovisioning shrinks like
        an erase-failure retirement.  Any still-valid pages are
        relocated first; if the free pool cannot absorb them the
        retirement is deferred to a later pass (the pages already moved
        still count and charge).
        """
        dest_stream = ftl._gc_stream(sb)
        drained = 0
        for ppn, lba, _ in _live_pages(ftl, sb):
            if not self._relocate_page(ftl, sb, dest_stream, lba, ppn, now_ns):
                break  # pool too tight; retire on a later pass
            drained += 1
        if drained:
            ftl._charge(SCRUB_RELOCATE, sb.index, drained, now_ns)
        if sb.valid_pages != 0 or sb.state is not SuperblockState.CLOSED:
            return
        ftl._unlink(sb)
        ftl._retire(sb, now_ns)
        ftl.stats.scrub_blocks_retired += 1
        self.block_failures.pop(sb.index, None)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def status(self, stats: "DeviceStats") -> ScrubStatus:
        """Progress snapshot; the pass and page totals are the device
        counters in ``stats``."""
        return ScrubStatus(
            enabled=True,
            interval_ns=self.config.interval_ns,
            refresh_threshold=self.config.refresh_threshold,
            next_due_ns=self.next_due_ns,
            cursor=self.cursor,
            passes_completed=stats.scrub_passes,
            pages_scanned=stats.scrub_pages_scanned,
            pages_relocated=stats.scrub_pages_relocated,
            corrupt_detected=self.corrupt_detected,
            blocks_retired=stats.scrub_blocks_retired,
            relocations_deferred=self.relocations_deferred,
            relocated_by_ruh=tuple(
                sorted(
                    self.relocated_by_ruh.items(),
                    key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1]),
                )
            ),
        )
