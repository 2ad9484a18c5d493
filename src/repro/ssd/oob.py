"""Columnar out-of-band (spare-area) metadata store.

The FTL keeps one OOB record per physical page — the persistent ground
truth recovery rebuilds the mapping from.  The seed implementation held
a ``List[Optional[OobRecord]]``; profiling the extent fast path showed
that *constructing* one Python record object per programmed page was
the single largest cost of a multi-page write (≈6x the cost of the
actual mapping updates).  This module replaces the record list with a
struct-of-arrays store: seven parallel columns (mapped flag, LBA,
sequence number, stream, payload, integrity bit, CRC), so programming a
contiguous run of pages is seven C-level slice fills instead of one
Python object per page.

Compatibility is preserved exactly:

* ``store[ppn]`` returns ``None`` for an unprogrammed page or an
  :class:`OobView` — a tiny proxy whose attributes
  (``lba``/``seq``/``stream``/``payload``/``ok``/``crc``) read the
  underlying columns; ``payload`` and ``ok`` also write them, so code
  that mutates a record in place (``rec.ok = False`` in the poison
  path) still works.
* ``store[ppn] = OobRecord(...)`` / ``= None`` decomposes into the
  columns (bad and torn pages, and the tests' per-page reference
  FTL).
* Iteration behaves like the old list, so differential tests imaging
  the whole OOB area run unchanged.

The fast paths are :meth:`OobStore.fill_run` (program ``count``
consecutive pages whose sequence number advances by one — seven slice
stores total), :meth:`OobStore.fill_moved` (the same for a GC run,
whose payloads and CRCs are gathered from the pages being copied) and
:meth:`OobStore.clear_range` (erase wipe).

Why a GC run may be stamped in one go (DESIGN.md §10 has the whole
argument): a victim's live pages move in page order into one write
point, so the copies take the consecutive pages and sequence numbers
programming them one at a time would hand out; the destination is an
erased superblock, never the victim, so the payload/CRC gather reads
nothing the fill overwrites; and a run never crosses a superblock
boundary, so when the free pool runs dry at one, every chunk stamped so
far is complete and nothing of the next has been written.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from operator import itemgetter
from typing import List, Optional

import numpy as np

__all__ = ["OobStore", "OobView"]


@lru_cache(maxsize=4)
def _blank(count: int):
    """Erased flag and object columns of ``count`` pages, built once."""
    return bytes(count), (None,) * count


class OobView:
    """Write-through view of one page's OOB record.

    Behaves like an :class:`~repro.ssd.recovery.OobRecord` for attribute
    access; mutations (the in-place ``ok = False`` quarantine) land in
    the backing columns.  Views are created on demand and never stored,
    so holding one across a mutation of the same page observes the
    mutation — exactly like holding a reference to the old shared
    record object did.
    """

    __slots__ = ("_store", "_ppn")

    def __init__(self, store: "OobStore", ppn: int) -> None:
        self._store = store
        self._ppn = ppn

    @property
    def lba(self) -> int:
        return self._store._lba[self._ppn]

    @property
    def seq(self) -> int:
        return self._store._seq[self._ppn]

    @property
    def stream(self) -> object:
        return self._store._stream[self._ppn]

    @property
    def payload(self) -> object:
        return self._store._payload[self._ppn]

    @payload.setter
    def payload(self, value: object) -> None:
        self._store._payload[self._ppn] = value

    @property
    def ok(self) -> bool:
        return bool(self._store._ok[self._ppn])

    @ok.setter
    def ok(self, value: bool) -> None:
        self._store._ok[self._ppn] = 1 if value else 0

    @property
    def crc(self) -> Optional[int]:
        return self._store._crc[self._ppn]


class OobStore:
    """Struct-of-arrays OOB metadata for ``total_pages`` physical pages."""

    __slots__ = (
        "_total",
        "_mapped",
        "_lba",
        "_seq",
        "_stream",
        "_payload",
        "_ok",
        "_crc",
        "_lba_np",
        "_seq_np",
    )

    def __init__(self, total_pages: int) -> None:
        self._total = total_pages
        # 0 = unprogrammed (the old list's None); 1 = record present.
        self._mapped = bytearray(total_pages)
        self._lba = array("i", bytes(4 * total_pages))
        self._seq = array("q", bytes(8 * total_pages))
        self._stream: List[object] = [None] * total_pages
        self._payload: List[object] = [None] * total_pages
        self._ok = bytearray(total_pages)
        self._crc: List[Optional[int]] = [None] * total_pages
        self._init_views()

    def _init_views(self) -> None:
        # Zero-copy numpy views over the lba/seq columns: fill_run
        # writes arithmetic ramps through these (np.arange assignment)
        # because constructing an array.array from a range pays a
        # Python-level per-element conversion loop.  The arrays never
        # resize, so the views stay valid for the store's lifetime.
        self._lba_np = np.frombuffer(self._lba, dtype=np.intc)
        self._seq_np = np.frombuffer(self._seq, dtype=np.longlong)

    # -- list-compatible surface --------------------------------------

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._total))]
        if self._mapped[index]:
            return OobView(self, index)
        return None

    def __setitem__(self, ppn: int, rec) -> None:
        if rec is None:
            self._mapped[ppn] = 0
            self._stream[ppn] = None
            self._payload[ppn] = None
            self._crc[ppn] = None
            self._ok[ppn] = 0
            return
        self._mapped[ppn] = 1
        self._lba[ppn] = rec.lba
        self._seq[ppn] = rec.seq
        self._stream[ppn] = rec.stream
        self._payload[ppn] = rec.payload
        self._ok[ppn] = 1 if rec.ok else 0
        self._crc[ppn] = rec.crc

    def __iter__(self):
        mapped = self._mapped
        for ppn in range(self._total):
            yield OobView(self, ppn) if mapped[ppn] else None

    # -- fast paths ----------------------------------------------------

    def fill_run(
        self,
        base: int,
        count: int,
        lbas: "np.ndarray",
        seq_start: int,
        stream: object,
        payloads,
        crcs,
    ) -> None:
        """Program ``count`` consecutive pages in seven slice stores:
        ``OobRecord(lbas[i], seq_start + i, stream, payloads[i], True,
        crcs[i])`` at ``base + i``, without a record object per page.
        A host chunk passes its LBA ramp and one payload and CRC
        repeated (a one-page chunk is stamped in line by the FTL)."""
        end = base + count
        ones = b"\x01" * count
        self._mapped[base:end] = ones
        self._lba_np[base:end] = lbas
        self._seq_np[base:end] = np.arange(
            seq_start, seq_start + count, dtype=np.longlong
        )
        self._stream[base:end] = [stream] * count
        self._payload[base:end] = payloads
        self._ok[base:end] = ones
        self._crc[base:end] = crcs

    def fill_moved(
        self,
        base: int,
        src: List[int],
        lbas: "np.ndarray",
        seq_start: int,
        stream: object,
    ) -> None:
        """Program ``len(src)`` consecutive pages as copies of the pages
        ``src`` (a GC run): ``OobRecord(lbas[i], seq_start + i, stream,
        old.payload, True, old.crc)`` at ``base + i``, ``old`` being
        ``store[src[i]]``, so corruption that predates the move stays
        detectable at the new location."""
        if len(src) == 1:  # itemgetter of one index returns no tuple
            payloads, crcs = [self._payload[src[0]]], [self._crc[src[0]]]
        else:
            gather = itemgetter(*src)
            payloads, crcs = gather(self._payload), gather(self._crc)
        self.fill_run(base, len(src), lbas, seq_start, stream, payloads, crcs)

    def clear_range(self, base: int, count: int) -> None:
        """Erase wipe: return ``count`` pages to the unprogrammed state."""
        end = base + count
        zeros, nones = _blank(count)
        self._mapped[base:end] = zeros
        self._ok[base:end] = zeros
        self._stream[base:end] = nones
        self._payload[base:end] = nones
        self._crc[base:end] = nones

    # -- persistence ---------------------------------------------------

    def __getstate__(self):
        return (
            self._total,
            self._mapped,
            self._lba,
            self._seq,
            self._stream,
            self._payload,
            self._ok,
            self._crc,
        )

    def __setstate__(self, state) -> None:
        (
            self._total,
            self._mapped,
            self._lba,
            self._seq,
            self._stream,
            self._payload,
            self._ok,
            self._crc,
        ) = state
        self._init_views()
