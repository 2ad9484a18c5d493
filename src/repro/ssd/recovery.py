"""Crash-consistency structures for the simulated FTL.

Real FDP SSDs survive power loss because the mapping state the
controller keeps in DRAM is reconstructible from what is on the NAND
itself: every page program deposits a few out-of-band (OOB) spare-area
bytes next to the data (the logical address, a monotonically increasing
sequence number, and the placement stream that produced the write), and
the controller additionally persists a periodic L2P checkpoint plus an
append-only mapping journal.  After a cut, recovery replays
checkpoint + journal and then *scans* the superblocks whose writes
post-date the last durable journal entry, rebuilding the L2P map, the
per-stream write points, and the open reclaim units from OOB metadata
alone.  Torn pages — programs that were in flight when power died —
fail their OOB integrity check and are discarded.

This module holds the persistent-side data structures and the rebuild
algorithm; :class:`~repro.ssd.ftl.Ftl` owns the volatile state and
calls into here from ``power_cut()`` / ``recover()``.  Everything here
is bookkeeping only: no RNG draws, no latency charges, no event-log
writes on the fault-free I/O path, so a device that never loses power
produces bit-identical results to a build without this subsystem.

Durability model (documented in DESIGN.md §9):

* Persistent across a cut: page data + OOB records, erase counts,
  RETIRED state, flushed journal entries, checkpoints taken before the
  tear point, the event log and cumulative device counters (modeled as
  capacitor/NOR-backed controller state, as on enterprise drives).
* Volatile (lost at a cut): the L2P/P2L arrays, write points, the free
  list, per-superblock valid counts, the unflushed journal buffer.
* GC is power-loss-protected: in-flight maintenance (migrations and
  erases) completes on capacitor power, so a cut never tears a GC
  program.  Host writes enjoy no such protection — they are exactly
  what tears.
"""

from __future__ import annotations

import dataclasses
import zlib
from array import array
from operator import sub
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "payload_crc",
    "OobRecord",
    "MappingJournal",
    "L2pCheckpoint",
    "TornWrite",
    "PowerCutReport",
    "RecoveryReport",
    "CHECKPOINT_INTERVAL_PAGES",
    "JOURNAL_FLUSH_INTERVAL",
    "CHECKPOINTS_KEPT",
]

# Take an L2P checkpoint every this many host pages written.
CHECKPOINT_INTERVAL_PAGES = 16384
# Flush the journal buffer to durable media every this many entries.
JOURNAL_FLUSH_INTERVAL = 256
# Checkpoints retained (the newest may be discarded by a retroactive
# tear, so keep a predecessor to fall back on).
CHECKPOINTS_KEPT = 2


def payload_crc(payload: object) -> int:
    """CRC32 protection info over a page payload.

    Payloads are opaque host objects (tuples, strings, ints), so the
    CRC is computed over a canonical text rendering rather than raw
    bytes — deterministic across runs and processes for the plain-data
    payloads the cache engines and benches store.  This models the
    NVMe protection-information guard tag: a mismatch between the
    stored CRC and the stored payload means the media silently
    corrupted the page after the host's write was acknowledged.
    """
    return zlib.crc32(repr(payload).encode("utf-8", "backslashreplace"))


class OobRecord:
    """Spare-area metadata programmed alongside one page.

    ``lba`` is the logical address the page holds (``-1`` for a page
    that was consumed without holding data: a failed program or a torn
    write).  ``seq`` is the global program sequence number — the total
    order recovery sorts by.  ``stream`` is the FTL stream key
    (placement identifier) that produced the write, used to re-open the
    right write point.  ``payload`` is an opaque host object modelling
    the page's content (cache engines store seal markers and bucket
    images here); GC migration carries it to the new location.  ``ok``
    is the OOB integrity bit: ``False`` marks a torn or failed program
    whose data must be discarded at recovery.  ``crc`` is the optional
    CRC32 protection info over ``payload`` (see :func:`payload_crc`),
    stamped when a latent-error model or patrol scrubber is attached
    and carried unchanged through GC and scrub relocations so silent
    corruption stays detectable wherever the page migrates; ``None``
    on devices without end-to-end protection (zero overhead, and old
    pickled images stay loadable).
    """

    __slots__ = ("lba", "seq", "stream", "payload", "ok", "crc")

    def __init__(
        self,
        lba: int,
        seq: int,
        stream: object,
        payload: object = None,
        ok: bool = True,
        crc: Optional[int] = None,
    ) -> None:
        self.lba = lba
        self.seq = seq
        self.stream = stream
        self.payload = payload
        self.ok = ok
        self.crc = crc

    def __getstate__(self):
        return (self.lba, self.seq, self.stream, self.payload, self.ok, self.crc)

    def __setstate__(self, state) -> None:
        self.lba, self.seq, self.stream, self.payload, self.ok, self.crc = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.ok else " TORN"
        return f"OobRecord(lba={self.lba}, seq={self.seq}{flag})"


class L2pCheckpoint:
    """One durable copy of the full L2P array, stamped with the global
    sequence number current when it was taken."""

    __slots__ = ("seq", "l2p")

    def __init__(self, seq: int, l2p: "array") -> None:
        self.seq = seq
        self.l2p = array("i", l2p)  # deep copy; the live array mutates


class MappingJournal:
    """Append-only L2P mapping journal with an explicit volatile buffer.

    Entries are ``(seq, lba, ppn)`` tuples; ``ppn == -1`` records a
    deallocation.  Appends land in a volatile buffer that is flushed to
    the durable region every ``flush_interval`` entries; a power cut
    loses the buffer but never flushed entries.  TRIMs force a
    synchronous flush — an unflushed TRIM would resurrect a stale
    mapping at recovery (a phantom), which is the one failure mode the
    journal exists to prevent.

    Storage is run-length encoded: programs land overwhelmingly as
    consecutive runs (``seq``/``lba``/``ppn`` each advancing by one per
    page), so the journal keeps ``(seq, lba, ppn, count)`` runs and
    materializes ``(seq, lba, ppn)`` tuples only on demand through the
    :attr:`buffer` / :attr:`flushed` properties.  Flush timing is
    unchanged — a run is split at exactly the interval boundaries the
    per-entry append loop would flush at, so which entries a power cut
    loses is byte-for-byte the same.  Deallocation entries
    (``ppn == -1``) are stored as single-entry runs; they never merge.
    """

    __slots__ = ("flush_interval", "_buf", "_buf_len", "_flushed")

    def __init__(self, flush_interval: int = JOURNAL_FLUSH_INTERVAL) -> None:
        if flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        self.flush_interval = flush_interval
        self._buf: List[Tuple[int, int, int, int]] = []
        self._buf_len = 0
        self._flushed: List[Tuple[int, int, int, int]] = []

    @staticmethod
    def _materialize(
        runs: List[Tuple[int, int, int, int]]
    ) -> List[Tuple[int, int, int]]:
        out: List[Tuple[int, int, int]] = []
        extend = out.extend
        for seq, lba, ppn, count in runs:
            if count == 1:
                out.append((seq, lba, ppn))
            else:
                extend(
                    zip(
                        range(seq, seq + count),
                        range(lba, lba + count),
                        range(ppn, ppn + count),
                    )
                )
        return out

    @property
    def buffer(self) -> List[Tuple[int, int, int]]:
        """Volatile entries, materialized in append order."""
        return self._materialize(self._buf)

    @property
    def flushed(self) -> List[Tuple[int, int, int]]:
        """Durable entries, materialized in append order."""
        return self._materialize(self._flushed)

    def _reopen(self, seq: int, lba: int, ppn: int) -> int:
        """Take the buffer's last run back out when the entry ``(seq,
        lba, ppn)`` continues it, for the caller to append the two as
        one run; returns how many entries came out (0: no run)."""
        buf = self._buf
        if buf:
            ls, ll, lp, lc = buf[-1]
            if seq == ls + lc and lba == ll + lc and ppn == lp + lc:
                del buf[-1]
                self._buf_len -= lc
                return lc
        return 0

    def append(self, seq: int, lba: int, ppn: int) -> None:
        """One entry, extending the buffer's last run when it continues
        it (a deallocation, ``ppn == -1``, never does)."""
        back = self._reopen(seq, lba, ppn) if ppn >= 0 else 0
        self.append_run(seq - back, lba - back, ppn - back, back + 1)

    def append_moves(self, seq: int, lbas: "np.ndarray", ppn: int) -> None:
        """One entry per LBA of ``lbas`` (an integer array; ``seq`` and
        ``ppn`` advance by one per page: a GC run), in the runs, flush
        points and buffered length :meth:`append` would leave.  A run
        ends where the LBAs stop being consecutive; runs are built at C
        level, and split by :meth:`append_run` when a flush falls among
        them."""
        lbas = np.asarray(lbas)
        n = len(lbas)
        starts = [0, *map((1).__add__, (lbas[1:] - lbas[:-1] != 1).nonzero()[0].tolist())]
        firsts = [*map(lbas.item, starts)]
        back = self._reopen(seq, firsts[0], ppn)
        starts[0] -= back
        firsts[0] -= back
        stops = starts[1:]
        stops.append(n)
        runs = zip(
            map(seq.__add__, starts), firsts, map(ppn.__add__, starts), map(sub, stops, starts)
        )
        if self._buf_len + n + back < self.flush_interval:
            self._buf += runs
            self._buf_len += n + back
        else:
            for run in runs:
                self.append_run(*run)

    def append_run(self, seq: int, lba: int, ppn: int, count: int) -> None:
        """Append ``count`` entries for consecutively programmed pages
        (``seq``/``lba``/``ppn`` each advancing by one per page).

        The batched extent path journals a whole chunk through this;
        flushes fire at exactly the interval boundaries the per-page
        :meth:`append` loop would hit, so power-cut durability (which
        entries were flushed when) is unchanged by batching.
        """
        buf = self._buf
        interval = self.flush_interval
        room = interval - self._buf_len  # at least 1: a full buffer flushes
        while count >= room:  # the run fills the buffer
            buf.append((seq, lba, ppn, room))
            self._flushed.extend(buf)
            buf.clear()
            seq, lba, ppn, count = seq + room, lba + room, ppn + room, count - room
            room = interval
        if count:
            buf.append((seq, lba, ppn, count))
        self._buf_len = interval - room + count

    def force_flush(self) -> None:
        """Move the volatile buffer into the durable region."""
        if self._buf:
            self._flushed.extend(self._buf)
            self._buf.clear()
            self._buf_len = 0

    def drop_volatile(self) -> int:
        """Power cut: the unflushed buffer is gone.  Returns its size."""
        lost = self._buf_len
        self._buf.clear()
        self._buf_len = 0
        return lost

    def truncate_after(self, seq: int) -> int:
        """Drop durable entries newer than ``seq`` (retroactive tear:
        the journal write describing a torn page cannot have completed
        either).  Returns the number of entries dropped."""
        flushed = self._flushed
        dropped = 0
        while flushed:
            rs, rl, rp, rc = flushed[-1]
            if rs > seq:
                dropped += rc
                flushed.pop()
                continue
            if rs + rc - 1 > seq:
                keep = seq - rs + 1
                dropped += rc - keep
                flushed[-1] = (rs, rl, rp, keep)
            break
        return dropped

    def compact_upto(self, seq: int) -> None:
        """Discard durable entries already covered by a checkpoint.

        ``_flushed`` is sequence-ordered (appends are monotone in seq
        and truncation only trims the tail), so the cut point is found
        by bisection and dropped with one slice delete.
        """
        flushed = self._flushed
        lo, hi = 0, len(flushed)
        while lo < hi:
            mid = (lo + hi) // 2
            run = flushed[mid]
            if run[0] + run[3] - 1 <= seq:
                lo = mid + 1
            else:
                hi = mid
        if lo:
            del flushed[:lo]
        if flushed:
            rs, rl, rp, rc = flushed[0]
            if rs <= seq:
                # Straddling run: trim the covered head.
                cut = seq - rs + 1
                flushed[0] = (rs + cut, rl + cut, rp + cut, rc - cut)

    @property
    def last_durable_seq(self) -> int:
        """Sequence number of the newest flushed entry (0 if none)."""
        if not self._flushed:
            return 0
        rs, _, _, rc = self._flushed[-1]
        return rs + rc - 1

    def __getstate__(self):
        return (self.flush_interval, self._buf, self._buf_len, self._flushed)

    def __setstate__(self, state) -> None:
        (self.flush_interval, self._buf, self._buf_len, self._flushed) = state


@dataclasses.dataclass(frozen=True)
class TornWrite:
    """One host write command torn by a power cut.

    ``pages_durable`` pages from the start of the command survived; the
    remainder never reached the media (or, for the page at the tear
    point itself, was mid-program and fails its OOB check).
    """

    lba: int
    npages: int
    pages_durable: int


@dataclasses.dataclass(frozen=True)
class PowerCutReport:
    """What a :meth:`~repro.ssd.device.SimulatedSSD.power_cut` destroyed.

    The soak harness reconciles its shadow map against
    ``torn_writes`` — each entry says exactly how many leading pages of
    an unacknowledged command are still durable.
    """

    now_ns: int
    tear_seq: int
    torn_writes: Tuple[TornWrite, ...] = ()
    pages_discarded: int = 0
    journal_entries_lost: int = 0
    checkpoints_dropped: int = 0

    @property
    def clean(self) -> bool:
        """Whether the cut caught the device quiescent (nothing torn)."""
        return not self.torn_writes and self.pages_discarded == 0


@dataclasses.dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one :meth:`~repro.ssd.device.SimulatedSSD.recover`."""

    checkpoint_seq: int
    journal_entries_replayed: int
    superblocks_scanned: int
    oob_mappings_applied: int
    stale_mappings_dropped: int
    torn_pages_discarded: int
    mappings_recovered: int
    write_points_reopened: Tuple[object, ...] = ()

    @property
    def noop(self) -> bool:
        """A recovery that found nothing to rebuild (fresh device)."""
        return (
            self.mappings_recovered == 0
            and self.journal_entries_replayed == 0
            and self.oob_mappings_applied == 0
        )


def rebuild_ftl_state(ftl) -> RecoveryReport:
    """Rebuild an FTL's volatile state from persistent media structures.

    This is the controller's power-on recovery path.  It is a *friend*
    of :class:`~repro.ssd.ftl.Ftl` (same package, touches private
    fields) so the crash machinery reads as one narrative here instead
    of being interleaved with the hot I/O path.

    Order of operations:

    1. Start from the newest surviving checkpoint (or an empty map).
    2. Replay the durable journal in sequence order (programs and
       TRIMs).
    3. Scan superblocks holding OOB records newer than the last durable
       journal entry and apply those mappings in sequence order — this
       picks up acknowledged writes whose journal entries were still
       buffered, and GC moves that out-ran the journal flush.
    4. Validate every mapping against the OOB ground truth, dropping
       entries whose page is missing, torn, or now holds another LBA.
    5. Rebuild P2L, per-superblock valid counts and states, the free
       list, and the per-stream write points (partially programmed
       superblocks re-attach to the stream recorded in their OOB).
    """
    geometry = ftl.geometry
    pps = ftl._pps
    oob = ftl._oob
    from .superblock import SuperblockState

    # -- 1. checkpoint ------------------------------------------------
    checkpoint: Optional[L2pCheckpoint] = (
        ftl._checkpoints[-1] if ftl._checkpoints else None
    )
    if checkpoint is not None:
        l2p = array("i", checkpoint.l2p)
        checkpoint_seq = checkpoint.seq
    else:
        l2p = array("i", [-1] * geometry.logical_pages)
        checkpoint_seq = 0

    # -- 2. journal replay --------------------------------------------
    replayed = 0
    for seq, lba, ppn in ftl._journal.flushed:
        if seq <= checkpoint_seq:
            continue  # already captured by the checkpoint
        l2p[lba] = ppn
        replayed += 1
    last_durable = max(checkpoint_seq, ftl._journal.last_durable_seq)

    # -- 3. OOB scan of unsequenced superblocks -----------------------
    scanned = 0
    fresh: List[Tuple[int, int, int]] = []  # (seq, lba, ppn)
    torn = 0
    max_seq = last_durable
    for sb in ftl.superblocks:
        base = sb.index * pps
        newer = False
        for off in range(pps):
            rec = oob[base + off]
            if rec is None:
                continue
            if rec.seq > max_seq:
                max_seq = rec.seq
            if rec.seq <= last_durable:
                continue
            newer = True
            if rec.ok and rec.lba >= 0:
                fresh.append((rec.seq, rec.lba, base + off))
            elif not rec.ok:
                torn += 1
        if newer:
            scanned += 1
    fresh.sort()
    for _seq, lba, ppn in fresh:
        l2p[lba] = ppn

    # -- 4. validate against OOB ground truth -------------------------
    stale = 0
    for lba in range(geometry.logical_pages):
        ppn = l2p[lba]
        if ppn < 0:
            continue
        rec = oob[ppn]
        if rec is None or not rec.ok or rec.lba != lba:
            l2p[lba] = -1
            stale += 1

    # -- 5. rebuild volatile structures -------------------------------
    p2l = array("i", [-1] * geometry.total_pages)
    mapped = 0
    for lba in range(geometry.logical_pages):
        ppn = l2p[lba]
        if ppn >= 0:
            p2l[ppn] = lba
            mapped += 1
    ftl._l2p[:] = l2p  # in place: the FTL's numpy views alias these
    ftl._p2l[:] = p2l

    valid = [0] * geometry.num_superblocks
    for ppn in range(geometry.total_pages):
        if p2l[ppn] >= 0:
            valid[ppn // pps] += 1

    free: List[int] = []
    write_points = {}
    open_partial: List[Tuple[int, int, object]] = []  # (max_seq, idx, stream)
    for sb in ftl.superblocks:
        if sb.state is SuperblockState.RETIRED:
            sb.valid_pages = 0
            continue
        base = sb.index * pps
        programmed = 0
        stream: object = None
        sb_max_seq = 0
        for off in range(pps):
            rec = oob[base + off]
            if rec is None:
                continue
            programmed = off + 1
            if rec.stream is not None:
                stream = rec.stream
            if rec.seq > sb_max_seq:
                sb_max_seq = rec.seq
        sb.valid_pages = valid[sb.index]
        if programmed == 0:
            sb.restore(SuperblockState.FREE, write_ptr=0, stream=None)
            free.append(sb.index)
        elif programmed == pps:
            sb.restore(SuperblockState.CLOSED, write_ptr=pps, stream=stream)
        else:
            sb.restore(SuperblockState.OPEN, write_ptr=programmed, stream=stream)
            open_partial.append((sb_max_seq, sb.index, stream))

    # Re-attach partially programmed superblocks to their write points.
    # Two open blocks on the same stream can only happen across a cut
    # (the old one's close never landed); the newest wins, the older is
    # closed in place — GC will reclaim it like any other block.
    open_partial.sort()
    reopened: List[object] = []
    for _sb_seq, idx, stream in open_partial:
        sb = ftl.superblocks[idx]
        prev = write_points.get(stream)
        if prev is not None:
            prev.restore(
                SuperblockState.CLOSED,
                write_ptr=prev.write_ptr,
                stream=prev.stream,
            )
            reopened.remove(prev.stream)
        write_points[stream] = sb
        reopened.append(stream)

    # Free list ordered to match a fresh device: pop() hands out low
    # indices first.
    free.sort(reverse=True)
    ftl._free = free
    ftl._write_points = write_points
    ftl._closed = [
        sb.index
        for sb in ftl.superblocks
        if sb.state is SuperblockState.CLOSED
    ]
    ftl._zero_closed = [
        idx for idx in ftl._closed if ftl.superblocks[idx].valid_pages == 0
    ]
    ftl._seq = max_seq

    return RecoveryReport(
        checkpoint_seq=checkpoint_seq,
        journal_entries_replayed=replayed,
        superblocks_scanned=scanned,
        oob_mappings_applied=len(fresh),
        stale_mappings_dropped=stale,
        torn_pages_discarded=torn,
        mappings_recovered=mapped,
        write_points_reopened=tuple(reopened),
    )
