"""The per-page reference FTL: the differential tier's oracle.

Until the FTL's write paths were collapsed into one, ``ssd/ftl.py``
carried this page-at-a-time loop as a product path (``io_path=
"scalar"``, and every fault-equipped device).  It is the simplest
statement of what a write does — one page: consult the injectors,
invalidate, allocate, program, account — so it lives on here, moved
verbatim, as the implementation the production extent path is compared
against bit for bit (``tests/test_differential_batch.py`` and the
property tier).  Everything it does not define — GC victim selection,
erase, power cut, recovery, reads, the scrubber's policy — is shared
with production, exactly as it was when both lived in one class.

Nothing under ``src/`` imports this module, and nothing here should be
made faster: its value is that it stays obviously right.
"""

from __future__ import annotations

from typing import List, Optional

from repro.fdp.events import FdpEvent, FdpEventType
from repro.fdp.ruh import PlacementIdentifier
from repro.ssd import SimulatedSSD
from repro.ssd.errors import PowerLossError, ProgramFailError
from repro.ssd.ftl import MAX_PROGRAM_ATTEMPTS, Ftl, StreamKey, _InflightWrite
from repro.ssd.latency import WRITE
from repro.ssd.recovery import OobRecord, payload_crc
from repro.ssd.superblock import Superblock

__all__ = ["ReferenceFtl", "ReferenceSSD"]


class ReferenceFtl(Ftl):
    """:class:`~repro.ssd.ftl.Ftl` with every program done one page at
    a time through :meth:`_program_into`."""

    def _program_into(
        self,
        stream: StreamKey,
        lba: int,
        now_ns: int,
        payload: object = None,
        crc: Optional[int] = None,
    ) -> int:
        """Program one page for ``lba`` through ``stream``'s write point.

        Returns the physical page number.  Allocates (and garbage
        collects for) a fresh superblock when the current one fills.

        Every program — host or GC — deposits an OOB record (LBA,
        global sequence number, stream, payload) in the page's spare
        area and appends a journal entry; this is the persistent trail
        power-on recovery rebuilds the mapping from.  With end-to-end
        protection enabled the record also carries CRC32 protection
        info: freshly computed for host data (``crc=None``), or passed
        through unchanged for GC / scrub relocations so corruption
        that predates the move stays detectable at the new location.

        With fault injection enabled, a failed program consumes its
        page — real controllers mark it bad and move on — and retries
        on the next page of the write point, rolling over into a fresh
        superblock if the failure lands on the last page.  A run of
        ``MAX_PROGRAM_ATTEMPTS`` consecutive failures completes the
        command with Write Fault (:class:`ProgramFailError`).
        """
        for _ in range(MAX_PROGRAM_ATTEMPTS):
            sb = self._write_points.get(stream)
            if sb is None:
                sb = self._open_write_point(stream, now_ns)
            ppn = sb.index * self._pps + sb.write_ptr
            if self.faults is not None and self.faults.fail_program(ppn):
                sb.write_ptr += 1  # the bad page is consumed, not mapped
                self._seq += 1
                self._oob[ppn] = OobRecord(-1, self._seq, stream, None, False)
                self.stats.program_failures += 1
                self.events.record(
                    FdpEvent(
                        FdpEventType.MEDIA_ERROR,
                        timestamp_ns=now_ns,
                        pages=1,
                        superblock=sb.index,
                    )
                )
                if sb.write_ptr == self._pps:
                    self._close_write_point(stream, now_ns)
                continue
            sb.write_ptr += 1
            sb.valid_pages += 1
            self._p2l[ppn] = lba
            self._l2p[lba] = ppn
            self._seq += 1
            if crc is None and self._protect:
                crc = payload_crc(payload)
            self._oob[ppn] = OobRecord(lba, self._seq, stream, payload, True, crc)
            self._journal.append(self._seq, lba, ppn)
            if sb.write_ptr == self._pps:
                self._close_write_point(stream, now_ns)
            return ppn
        raise ProgramFailError(
            f"program of LBA {lba} failed on {MAX_PROGRAM_ATTEMPTS} "
            f"consecutive pages of stream {stream}",
            lba=lba,
            attempts=MAX_PROGRAM_ATTEMPTS,
        )

    def _migrate_live(self, victim: Superblock, now_ns: int) -> int:
        """Copy a victim's live pages to its GC write point, in page
        order; returns how many moved."""
        dest = self._gc_stream(victim)
        pps = self._pps
        base = victim.index * pps
        migrated = 0
        for ppn in range(base, base + pps):
            lba = self._p2l[ppn]
            if lba < 0 or self._l2p[lba] != ppn:
                continue
            old_rec = self._oob[ppn]
            self._program_into(
                dest, lba, now_ns,
                old_rec.payload if old_rec is not None else None,
                old_rec.crc if old_rec is not None else None,
            )
            victim.valid_pages -= 1
            migrated += 1
        return migrated

    def _program_moved(self, stream, lbas, src, now_ns: int) -> int:
        """The scrubber's relocation call (one page), as the
        ``_program_into`` the scrubber used to make itself."""
        (lba,), (ppn,) = lbas.tolist(), src
        rec = self._oob[ppn]
        self._program_into(stream, lba, now_ns, rec.payload, rec.crc)
        return 1

    def _host_write_page(
        self,
        lba: int,
        stream: StreamKey,
        now_ns: int,
        payload: object = None,
        ppns: Optional[List[int]] = None,
    ) -> None:
        """Mapping + accounting for one host page (no latency charge)."""
        if self.faults is not None and self.faults.power_loss_on_program():
            self._tear_current_page(stream)
            raise PowerLossError(
                f"power lost during host page program (LBA {lba}, "
                f"stream {stream})",
                lba=lba,
                now_ns=now_ns,
            )
        crc: Optional[int] = None
        if self._protect:
            # Protection info covers the *host's* data.  A silent
            # corruption stores mutated media content under the
            # original CRC — undetectable until some layer verifies.
            crc = payload_crc(payload)
            if self.latent is not None and self.latent.corrupt_program(lba):
                payload = self.latent.corrupted(payload)
        old = self._l2p[lba]
        if old >= 0:
            self._release(old // self._pps)
            self._l2p[lba] = -1
        ppn = self._program_into(stream, lba, now_ns, payload, crc)
        if ppns is not None:
            ppns.append(ppn)
        self.stats.host_pages_written += 1
        self.stats.nand_pages_written += 1
        self.stream_host_pages[stream] = (
            self.stream_host_pages.get(stream, 0) + 1
        )
        self._pages_since_checkpoint += 1

    def write_range(
        self,
        lba: int,
        npages: int,
        pid: Optional[PlacementIdentifier] = None,
        now_ns: int = 0,
        payload: object = None,
    ) -> int:
        """Write ``npages`` consecutive pages as one striped command."""
        if npages <= 0:
            raise ValueError("npages must be positive")
        self._check_online()
        if lba < 0 or lba + npages > self._logical_pages:
            self._check_lba(lba)
            self._check_lba(lba + npages - 1)
        if self.scrubber is not None:
            self.scrubber.maybe_step(self, now_ns)
        stream = self._host_stream(pid)
        ppns: List[int] = []
        try:
            for i in range(npages):
                self._host_write_page(
                    lba + i, stream, now_ns, payload, ppns
                )
        except PowerLossError as exc:
            exc.lba = lba
            exc.npages = npages
            exc.pages_durable = len(ppns)
            self.power_cut(now_ns, _torn_mid_command=True)
            raise
        done = self._inject_host_spike(self.latency.service(now_ns, WRITE, npages))
        self._inflight.append(_InflightWrite(lba, npages, ppns, done))
        self._maybe_checkpoint()
        return done


class ReferenceSSD(SimulatedSSD):
    """A device whose FTL is the oracle, across ``format()`` too."""

    ftl_class = ReferenceFtl
