"""Flash Translation Layer with FDP-aware write points and greedy GC.

This is the heart of the simulated device.  It maintains the logical to
physical mapping at page granularity, services host reads/writes/
deallocations, and runs garbage collection over superblock-sized
reclaim units, with the placement semantics of NVMe FDP:

* Without FDP, every host write funnels through a single open
  superblock, so the SOC's hot random pages and the LOC's cold
  sequential pages intermix on the same erase unit — the paper's
  Insight 1, and the root cause of high DLWA.
* With FDP, each placement identifier (<reclaim group, RUH>) gets its
  own write point, so data written through different handles lands in
  disjoint reclaim units.
* GC destinations follow the RUH type: *initially isolated* handles
  share one GC write point per reclaim group (surviving data may
  intermix after GC, as TP4146 allows), while *persistently isolated*
  handles keep a private GC write point forever.

Validity is derived from mapping consistency: physical page ``ppn``
holds live data iff ``l2p[p2l[ppn]] == ppn``.  Each superblock caches a
valid-page count so greedy victim selection never touches page state.
"""

from __future__ import annotations

import collections
import random
from array import array
from bisect import bisect_left, insort
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from typing import TYPE_CHECKING

from ..fdp.config import FdpConfiguration
from ..fdp.events import FdpEvent, FdpEventLog, FdpEventType
from ..fdp.ruh import PlacementIdentifier, RuhType
from ..faults.latent import OUTCOME_CLEAN, OUTCOME_CORRECTABLE, OUTCOME_SOFT_RETRY
from .errors import (
    DeviceFullError,
    DeviceOfflineError,
    InvalidPlacementError,
    OutOfRangeError,
    PowerLossError,
    ProgramFailError,
    UncorrectableReadError,
)
from .geometry import Geometry
from .latency import ERASE, GC_MIGRATE, READ, WRITE, LatencyModel
from .oob import OobStore
from .recovery import (
    CHECKPOINT_INTERVAL_PAGES,
    CHECKPOINTS_KEPT,
    JOURNAL_FLUSH_INTERVAL,
    L2pCheckpoint,
    MappingJournal,
    OobRecord,
    PowerCutReport,
    RecoveryReport,
    TornWrite,
    payload_crc,
    rebuild_ftl_state,
)
from .stats import DeviceStats
from .superblock import Superblock, SuperblockState
from .wear import (
    WearStats,
    collect_wear_stats,
    retention_acceleration,
    select_wear_victim,
)

if TYPE_CHECKING:  # avoid an import cycle at runtime; duck-typed use only
    from ..faults.latent import LatentErrorModel
    from ..faults.model import FaultModel
    from .scrub import PatrolScrubber
    from .sched import MultiQueueScheduler

__all__ = ["Ftl", "HOST_STREAM", "GC_STREAM", "MAX_PROGRAM_ATTEMPTS"]

HOST_STREAM = "host"
GC_STREAM = "gc"

# A stream key is (kind, reclaim_group, ruh_id-or-None); it names one
# write point.  Conventional devices use a single host stream.
StreamKey = Tuple[str, int, Optional[int]]

_CONVENTIONAL_HOST: StreamKey = (HOST_STREAM, 0, None)

# At most one static wear-leveling pass per this many GC victim
# selections (see Ftl._collect_one).
WEAR_LEVEL_PERIOD = 16

# A program that fails retries on the next page of the write point; a
# run of this many consecutive failures means the die is dying and the
# write completes with Write Fault (ProgramFailError) instead.
MAX_PROGRAM_ATTEMPTS = 8

# Recently completed host write commands tracked for power_cut(): a cut
# at time T tears every command whose completion lies beyond T.  The
# simulator is closed-loop (one command in flight per caller), so a
# small window bounds the candidates.
INFLIGHT_WINDOW = 8


class _InflightWrite(NamedTuple):
    """One recent host write command, for power-cut tearing."""

    lba: int
    npages: int
    ppns: List[int]  # mapped ppn per page, in program order
    ack_ns: int


class Ftl:
    """Page-mapped FTL over :class:`~repro.ssd.geometry.Geometry`.

    There is one write path (DESIGN.md §10): :meth:`write_range`
    programs a command in chunks that end at reclaim-unit boundaries.
    Whether it also stops at every page is decided at construction,
    once, from what was attached: a fault model, or a latent model that
    can corrupt programs (``corrupts_writes``), makes every host page a
    one-page chunk with the injectors consulted before it is
    programmed, and nothing a caller passes can turn that off.  A
    quiescent latent model (zero corruption rate, empty plan) keeps
    whole chunks: read-side disturb tracking and CRC stamping need no
    per-page write hook.

    Parameters
    ----------
    geometry:
        NAND layout; one superblock is one reclaim unit.
    fdp_config:
        When given, FDP placement is enabled and writes may carry a
        placement identifier.  When ``None`` the device behaves like a
        conventional SSD (single implicit write point).
    gc_reserve_superblocks:
        Low-water mark for the free pool; GC runs while the pool is
        below it.  Must leave room for every concurrently open write
        point.
    faults:
        Optional :class:`~repro.faults.model.FaultModel` consulted on
        every read, program, and erase.  ``None`` (the default) keeps
        the device perfectly reliable and the I/O path bit-identical to
        a fault-free build.
    latent:
        Optional latent-error model: read-disturb accumulation,
        wear-accelerated retention aging, and silent corruption,
        feeding the ECC outcome ladder on reads.  Implies end-to-end
        CRC stamping of every programmed page.
    scrub:
        Optional background patrol scrubber: walks
        CLOSED superblocks on the device's busy clock, verifies page
        CRCs, relocates pages past the refresh threshold, and retires
        repeatedly failing blocks.  Also implies CRC stamping.
    """

    def __init__(
        self,
        geometry: Geometry,
        fdp_config: Optional[FdpConfiguration] = None,
        *,
        gc_reserve_superblocks: Optional[int] = None,
        gc_victim_sample: Optional[int] = None,
        wear_level_threshold: Optional[int] = None,
        victim_seed: int = 0x55D,
        faults: "Optional[FaultModel]" = None,
        checkpoint_interval_pages: int = CHECKPOINT_INTERVAL_PAGES,
        journal_flush_interval: int = JOURNAL_FLUSH_INTERVAL,
        power_seed: int = 0x9C7A,
        latent: "Optional[LatentErrorModel]" = None,
        scrub: "Optional[PatrolScrubber]" = None,
        sched: "Optional[MultiQueueScheduler]" = None,
    ) -> None:
        self.geometry = geometry
        self.fdp_config = fdp_config
        self.faults = faults
        # Multi-queue scheduler (repro.ssd.sched): a pure timing
        # overlay.  When attached, GC/scrub work is additionally
        # reported as channel-occupancy spans; no state path branches
        # on it, which is what keeps scheduler-on runs bit-identical
        # to scheduler-off for L2P/P2L/OOB/journal/stats.
        self.sched = sched
        self.latent = latent
        self.scrubber = scrub
        # End-to-end protection info (OOB CRC32) is stamped whenever
        # something downstream will verify it; otherwise pages carry
        # crc=None and the fault-free path stays bit-identical to a
        # build without the integrity subsystem.
        self._protect = latent is not None or scrub is not None
        # Resolved once here, so the write path never changes its chunk
        # size mid-run: with an injector that must see each host page
        # before it is programmed, a chunk is one page.
        self._page_hooks = faults is not None or (
            latent is not None and latent.corrupts_writes
        )
        self.latency = LatencyModel()
        self.events = FdpEventLog()
        self.stats = DeviceStats()

        if gc_reserve_superblocks is None:
            gc_reserve_superblocks = self._default_reserve()
        if gc_reserve_superblocks < 2:
            raise ValueError("gc_reserve_superblocks must be >= 2")
        self.gc_reserve = gc_reserve_superblocks
        if gc_victim_sample is not None and gc_victim_sample < 1:
            raise ValueError("gc_victim_sample must be positive or None")
        self.gc_victim_sample = gc_victim_sample
        if wear_level_threshold is not None and wear_level_threshold <= 0:
            raise ValueError("wear_level_threshold must be positive or None")
        self.wear_level_threshold = wear_level_threshold
        self._victim_rng = random.Random(victim_seed)

        pps = geometry.pages_per_superblock
        if geometry.num_superblocks <= self.gc_reserve + 1:
            raise ValueError("geometry too small for the GC reserve")

        self._pps = pps
        self._logical_pages = geometry.logical_pages
        # Write point of every PID resolved so far (None: default RUH 0).
        default = _CONVENTIONAL_HOST if fdp_config is None else (HOST_STREAM, 0, 0)
        self._host_streams: Dict[object, StreamKey] = {None: default}
        self._l2p = array("i", [-1] * self._logical_pages)
        self._p2l = array("i", [-1] * geometry.total_pages)
        self._init_views()
        self.superblocks: List[Superblock] = [
            Superblock(i) for i in range(geometry.num_superblocks)
        ]
        self._free: List[int] = list(range(geometry.num_superblocks))
        self._free.reverse()  # pop() hands out low indices first
        # CLOSED superblock indices in ascending order, maintained
        # incrementally so victim selection never rescans the whole
        # device (the scan order matches iterating ``superblocks``, so
        # selection and its RNG draws are unchanged).
        self._closed: List[int] = []
        # CLOSED superblocks whose last valid page has been invalidated
        # (ascending index order).  A CLOSED block's valid count only
        # ever decreases, so membership is monotone until the erase —
        # and the global-greedy victim scan's answer, "first occurrence
        # of the minimum over ``_closed``", is exactly the lowest entry
        # here whenever the list is non-empty.  Maintained at every
        # invalidation site; ``check_invariants`` rescans it.
        self._zero_closed: List[int] = []
        # Reusable superblock-sized source slice for the erase path's
        # P2L wipe (slice assignment copies the values out); the OOB
        # wipe goes through OobStore.clear_range.
        self._erased_p2l = array("i", [-1] * pps)
        self._write_points: Dict[StreamKey, Superblock] = {}
        # Host pages written per stream key, for per-handle accounting.
        self.stream_host_pages: Dict[StreamKey, int] = {}
        if self.latent is not None:
            self.latent.bind(geometry.total_pages, pps)

        # --- crash-consistency state (see repro.ssd.recovery) --------
        if checkpoint_interval_pages < 1:
            raise ValueError("checkpoint_interval_pages must be >= 1")
        self.checkpoint_interval_pages = checkpoint_interval_pages
        self.power_seed = power_seed
        # Per-physical-page OOB records: the persistent ground truth
        # recovery scans.  Columnar (struct-of-arrays) so the extent
        # fast paths deposit whole runs with slice stores; indexing
        # still yields None for an unprogrammed page (see ssd.oob).
        self._oob = OobStore(geometry.total_pages)
        # Global program sequence number (monotonic over device life).
        self._seq = 0
        self._journal = MappingJournal(journal_flush_interval)
        self._checkpoints: List[L2pCheckpoint] = []
        self._pages_since_checkpoint = 0
        self._inflight: Deque[_InflightWrite] = collections.deque(
            maxlen=INFLIGHT_WINDOW
        )
        self._offline = False

    # ------------------------------------------------------------------
    # configuration helpers
    # ------------------------------------------------------------------

    def _init_views(self) -> None:
        # Zero-copy numpy views of the mapping tables, which are never
        # replaced or resized; a pickled copy rebuilds its own.
        self._l2p_np = np.frombuffer(self._l2p, dtype=np.intc)
        self._p2l_np = np.frombuffer(self._p2l, dtype=np.intc)

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_l2p_np"], state["_p2l_np"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._init_views()

    def _default_reserve(self) -> int:
        """Low-water mark for the free pool.

        Write points pin their open superblock *outside* the free pool,
        so the reserve only has to cover allocations that can happen
        while a single GC pass is in flight: one destination superblock
        for migrations plus the host block that triggered the pass.  A
        small constant keeps the reserve well below device OP — a large
        reserve would eat the very spare capacity that cushions SOC
        garbage collection (Insight 3) and inflate DLWA.
        """
        return max(3, self.geometry.num_superblocks // 128)

    def _host_stream(self, pid: Optional[PlacementIdentifier]) -> StreamKey:
        """Resolve the write-point key for a host write, and remember it
        where :meth:`write_range` looks first."""
        stream = self._host_streams.get(pid)
        if stream is not None:
            return stream
        if self.fdp_config is None:
            # Conventional device: placement directives are ignored, as
            # TP4146's backward compatibility requires.
            self._host_streams[pid] = _CONVENTIONAL_HOST
            return _CONVENTIONAL_HOST
        try:
            self.fdp_config.validate_pid(pid)
        except ValueError as exc:
            self.events.record(
                FdpEvent(
                    FdpEventType.INVALID_PLACEMENT_ID,
                    timestamp_ns=self.latency.busy_until,
                )
            )
            raise InvalidPlacementError(
                f"write tagged with PID <rg={pid.reclaim_group}, "
                f"ruh={pid.ruh_id}> but the device advertises "
                f"{self.fdp_config.num_reclaim_groups} reclaim group(s) x "
                f"{self.fdp_config.num_ruhs} RUH(s): {exc}"
            ) from exc
        stream = (HOST_STREAM, pid.reclaim_group, pid.ruh_id)
        self._host_streams[pid] = stream
        return stream

    def _gc_stream(self, victim: Superblock) -> StreamKey:
        """GC destination write point for a victim's surviving data.

        Initially isolated RUHs share a per-reclaim-group GC stream, so
        valid data from different handles may intermix after GC;
        persistently isolated RUHs get a private GC stream.
        """
        if self.fdp_config is None:
            return (GC_STREAM, 0, None)
        origin = victim.stream
        rg = origin[1] if isinstance(origin, tuple) else 0
        ruh_id = origin[2] if isinstance(origin, tuple) else None
        if ruh_id is None:
            return (GC_STREAM, rg, None)
        if self.fdp_config.ruh(ruh_id).ruh_type is RuhType.PERSISTENTLY_ISOLATED:
            return (GC_STREAM, rg, ruh_id)
        return (GC_STREAM, rg, None)

    # ------------------------------------------------------------------
    # superblock pool management
    # ------------------------------------------------------------------

    @property
    def free_superblocks(self) -> int:
        return len(self._free)

    def _pop_free(self, stream: StreamKey) -> Superblock:
        if not self._free:
            raise DeviceFullError(
                f"free superblock pool exhausted allocating for stream "
                f"{stream} (free=0, gc_reserve={self.gc_reserve}, "
                f"open_write_points={len(self._write_points)}, "
                f"retired={self.stats.superblocks_retired}/"
                f"{self.geometry.num_superblocks} superblocks, "
                f"occupancy={self.occupancy():.2f}); increase "
                "overprovisioning or the GC reserve"
            )
        if self.wear_level_threshold is None:
            idx = self._free.pop()
        else:
            # Wear-aware allocation: park GC survivors (cold data) on
            # the most-worn free block so it retires from the hot
            # rotation, and give host streams the least-worn block.
            # This swap is what actually closes a wear gap — recycling
            # young blocks alone only moves the minimum up by one per
            # pass.
            key = (lambda i: self.superblocks[i].erase_count)
            pos = (
                max(range(len(self._free)), key=lambda p: key(self._free[p]))
                if stream[0] == GC_STREAM
                else min(
                    range(len(self._free)), key=lambda p: key(self._free[p])
                )
            )
            idx = self._free.pop(pos)
        sb = self.superblocks[idx]
        sb.open_for(stream)
        return sb

    def _open_write_point(self, stream: StreamKey, now_ns: int) -> Superblock:
        """Give ``stream`` a fresh superblock; a host stream first
        collects garbage until the free pool is back at the reserve."""
        if stream[0] == HOST_STREAM:
            self._collect_until_reserve(now_ns)
        sb = self._pop_free(stream)
        self._write_points[stream] = sb
        return sb

    def _release(self, block: int, count: int = 1) -> None:
        """``count`` pages of superblock ``block`` stop being live."""
        sb = self.superblocks[block]
        sb.valid_pages -= count
        if not sb.valid_pages and sb.state is SuperblockState.CLOSED:
            insort(self._zero_closed, block)

    def _close_write_point(self, stream: StreamKey, now_ns: int) -> None:
        sb = self._write_points.pop(stream, None)
        if sb is None:
            return
        sb.close()
        insort(self._closed, sb.index)
        if not sb.valid_pages:
            insort(self._zero_closed, sb.index)
        self.events.record(
            FdpEvent(
                FdpEventType.RU_SWITCHED,
                timestamp_ns=now_ns,
                ruh_id=stream[2],
                reclaim_group=stream[1],
                superblock=sb.index,
            )
        )

    def _writable(self, stream: StreamKey, lba: int, now_ns: int) -> Superblock:
        """The superblock whose write pointer takes ``stream``'s next
        program (a host page or a relocated copy of ``lba``): the open
        write point, else a fresh superblock, which a host stream first
        collects garbage for.  Every program in the device gets its
        page here.

        With fault injection enabled, that page is offered to
        ``fail_program`` first.  A failed program consumes its page —
        real controllers mark it bad and move on — and the next page of
        the write point is tried, rolling over into a fresh superblock
        if the failure lands on the last one.  A run of
        ``MAX_PROGRAM_ATTEMPTS`` consecutive failures completes the
        command with Write Fault (:class:`ProgramFailError`).
        """
        faults = self.faults
        for _ in range(MAX_PROGRAM_ATTEMPTS):
            sb = self._write_points.get(stream)
            if sb is None:
                sb = self._open_write_point(stream, now_ns)
            if faults is None:
                return sb
            ppn = sb.index * self._pps + sb.write_ptr
            if not faults.fail_program(ppn):
                return sb
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
        raise ProgramFailError(
            f"program of LBA {lba} failed on {MAX_PROGRAM_ATTEMPTS} "
            f"consecutive pages of stream {stream}",
            lba=int(lba),
            attempts=MAX_PROGRAM_ATTEMPTS,
        )

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def _select_victim(self) -> Optional[Superblock]:
        """Greedy-min-valid victim, global or over a candidate window.

        The default (``gc_victim_sample=None``) is global greedy: the
        emptiest closed superblock, and every run the repo records
        selects its victims this way.  A real controller may instead
        pick the emptiest block among a hardware-sized candidate window
        (per die/channel scan); ``gc_victim_sample`` models that window
        as that many closed superblocks taken from a rotating cursor
        with a randomized start.  Nothing but tests sets it yet: it is
        one of the candidates ROADMAP item 4 sweeps for the Non-FDP
        DLWA gap.
        """
        closed = self._closed
        if not closed:
            return None
        superblocks = self.superblocks
        if (
            self.gc_victim_sample is not None
            and len(closed) > self.gc_victim_sample
        ):
            start = self._victim_rng.randrange(len(closed))
            stop = start + self.gc_victim_sample
            if stop <= len(closed):
                window = closed[start:stop]
            else:
                window = closed[start:] + closed[: stop - len(closed)]
        else:
            # Global greedy: when any fully-invalid CLOSED block exists
            # the scan's answer is the lowest-indexed one, which the
            # ``_zero_closed`` cache holds at position 0 — no scan.
            if self._zero_closed:
                return superblocks[self._zero_closed[0]]
            window = closed
        # First occurrence of the minimum — the same victim a strict-<
        # scan with a zero-valid early break selects, but with the scan
        # itself (min + index) running at C speed over a flat list.
        valid = [superblocks[idx].valid_pages for idx in window]
        return superblocks[window[valid.index(min(valid))]]

    def _collect_one(self, now_ns: int) -> bool:
        """Run one GC pass: pick a victim, migrate, erase.

        Returns ``False`` when no victim exists (nothing closed yet).
        """
        victim = None
        if (
            self.wear_level_threshold is not None
            and self.stats.gc_victim_selections % WEAR_LEVEL_PERIOD == 0
        ):
            # Static wear leveling: recycle the least-worn closed block
            # when the erase-count spread grows past the threshold.
            # Rate-limited to one pass per WEAR_LEVEL_PERIOD normal GCs:
            # the least-worn block holds cold, mostly-valid data, so an
            # unthrottled leveler would turn every GC into a full-block
            # migration and destroy DLWA.
            victim = select_wear_victim(
                self.superblocks, self.wear_level_threshold
            )
        if victim is None:
            victim = self._select_victim()
        if victim is None:
            return False
        self.stats.gc_victim_selections += 1

        if victim.valid_pages:
            # Move the live pages: this is the DLWA the paper fights.
            migrated = self._migrate_live(victim, now_ns)
            self._charge(GC_MIGRATE, victim.index, migrated, now_ns)
            self.stats.gc_pages_read += migrated
            self.stats.gc_pages_migrated += migrated
            self.stats.nand_pages_written += migrated
            self.events.record(
                FdpEvent(
                    FdpEventType.MEDIA_RELOCATED,
                    timestamp_ns=now_ns,
                    pages=migrated,
                    superblock=victim.index,
                )
            )

        if victim.valid_pages != 0:
            raise RuntimeError(
                f"GC left {victim.valid_pages} valid pages in superblock "
                f"{victim.index}"
            )
        self._unlink(victim)
        if self.faults is not None and self.faults.fail_erase(
            victim.index, victim.erase_count + 1
        ):
            # Erase failure: the block is retired in place.  It never
            # returns to the free pool, so effective overprovisioning
            # shrinks — the mechanism by which wear-driven retirement
            # feeds back into write amplification.  The host learns of
            # it only through the event log and health telemetry.
            self._retire(victim, now_ns)
            self.stats.erase_failures += 1
            # The failed attempt still busies the die.
            self._charge(ERASE, victim.index, 0, now_ns)
            return True
        victim.erase()
        self._free.append(victim.index)
        self._charge(ERASE, victim.index, 0, now_ns)
        self.stats.superblocks_erased += 1
        return True

    def _unlink(self, sb: Superblock) -> None:
        """Take a CLOSED superblock whose pages are all dead out of the
        mapping before it is erased or retired."""
        # Erase fence: a pending host program may have invalidated one
        # of the block's pages, and once the erase destroys that page
        # the tear-time rollback of the newer copy can no longer fall
        # back to it.  The controller therefore completes outstanding
        # programs before erasing (erase latency dwarfs the in-flight
        # window), making everything issued so far durable.
        self._inflight.clear()
        base = sb.index * self._pps
        # The erase (or retirement) destroys the pages' OOB trail;
        # clearing it here keeps recovery from resurrecting stale
        # mappings out of recycled blocks.  (Slice stores: this runs
        # for every reclaimed superblock, so it is hot at high DLWA.)
        self._p2l[base : base + self._pps] = self._erased_p2l
        self._oob.clear_range(base, self._pps)
        # Erasing (or retiring) the block also clears its accumulated
        # read-disturb history — fresh cells start clean.
        if self.latent is not None:
            self.latent.on_erase(base, self._pps)
        del self._closed[bisect_left(self._closed, sb.index)]
        zpos = bisect_left(self._zero_closed, sb.index)
        if (
            zpos < len(self._zero_closed)
            and self._zero_closed[zpos] == sb.index
        ):
            del self._zero_closed[zpos]

    def _retire(self, sb: Superblock, now_ns: int) -> None:
        """Retire an unlinked superblock in place (a failed erase, or a
        block the scrubber gave up on); it never returns to the free
        pool."""
        sb.retire()
        self.stats.superblocks_retired += 1
        self.events.record(
            FdpEvent(
                FdpEventType.MEDIA_ERROR, timestamp_ns=now_ns, superblock=sb.index
            )
        )

    def _charge(
        self, kind: str, superblock_index: int, npages: int, now_ns: int
    ) -> None:
        """Charge ``npages`` of background ``kind`` work on superblock
        ``superblock_index`` to the busy clock and, when a scheduler is
        attached, to that superblock's channel."""
        self.latency.service(now_ns, kind, npages)
        if self.sched is not None:
            self.sched.note_background(kind, superblock_index, npages, now_ns)

    def _migrate_live(self, victim: Superblock, now_ns: int) -> int:
        """Copy a victim's live pages to its GC write point, in page
        order; returns how many moved.

        Copies are programmed before the victim gives the pages up, so
        a free pool that runs dry (or a write point that keeps failing)
        part-way leaves the victim's count matching what has not moved,
        ready for a retry.  The live set is gathered in one pass and
        programmed a run at a time (DESIGN.md §10).
        """
        dest = self._gc_stream(victim)
        pps = self._pps
        base = victim.index * pps
        lbas = self._p2l_np[base : base + pps]
        offs = np.flatnonzero(lbas >= 0)
        lbas = lbas[offs]
        live = self._l2p_np[lbas] == offs + base
        lbas = lbas[live]
        src = (offs[live] + base).tolist()
        done = 0
        while done < len(src):
            moved = self._program_moved(dest, lbas[done:], src[done:], now_ns)
            victim.valid_pages -= moved
            done += moved
        return done

    def _collect_until_reserve(self, now_ns: int) -> None:
        """Keep the free pool at or above the GC reserve."""
        # Bounded loop: each pass erases exactly one superblock, so
        # 2 * num_superblocks passes without reaching the reserve means
        # the device genuinely cannot reclaim space.
        for _ in range(2 * self.geometry.num_superblocks):
            if len(self._free) >= self.gc_reserve:
                return
            if not self._collect_one(now_ns):
                return  # nothing closed yet; pool drains legitimately
        if len(self._free) == 0:
            raise DeviceFullError(
                "GC cannot keep up: every superblock is almost fully valid "
                f"(free=0, gc_reserve={self.gc_reserve}, "
                f"retired={self.stats.superblocks_retired}/"
                f"{self.geometry.num_superblocks} superblocks, "
                f"occupancy={self.occupancy():.2f})"
            )

    # ------------------------------------------------------------------
    # host-facing operations
    # ------------------------------------------------------------------

    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self._logical_pages:
            raise OutOfRangeError(
                f"LBA {lba} outside [0, {self._logical_pages})"
            )

    def _inject_host_spike(self, done_ns: int) -> int:
        """Roll one per-command latency spike (fault injection)."""
        if self.faults is None:
            return done_ns
        spike = self.faults.latency_spike()
        if spike:
            self.stats.latency_spikes += 1
            done_ns = self.latency.stall(done_ns, spike)
        return done_ns

    def _inject_read_faults(self, lba: int, npages: int, now_ns: int) -> None:
        """Roll per-page UECC faults over a read command's mapped pages.

        Raises :class:`UncorrectableReadError` on the first failing
        page.  Latency and read counters have already been charged by
        the caller — a failed read costs the same media time as a
        successful one.
        """
        for cur in range(lba, lba + npages):
            ppn = self._l2p[cur]
            if ppn < 0 or not self.faults.fail_read(cur):
                continue
            self.stats.read_uecc_errors += 1
            self.events.record(
                FdpEvent(
                    FdpEventType.MEDIA_ERROR,
                    timestamp_ns=now_ns,
                    pages=1,
                    superblock=ppn // self._pps,
                )
            )
            raise UncorrectableReadError(
                f"uncorrectable read error at LBA {cur} "
                f"(ppn {ppn}, superblock {ppn // self._pps})",
                lba=cur,
                ppn=ppn,
            )

    def _poison_page(self, lba: int, ppn: int, now_ns: int) -> None:
        """Quarantine a page whose protection info failed verification.

        Detected corruption: the controller marks the page's OOB
        integrity bit bad and drops the mapping, exactly as NVMe PI
        turns a guard-tag mismatch into an unrecovered read.  No
        journal entry is needed — recovery's OOB validation step drops
        ``ok=False`` pages on its own — and subsequent reads see the
        LBA unmapped, which the cache layer degrades like any media
        error.
        """
        rec = self._oob[ppn]
        if rec is not None:
            rec.ok = False
        if self._l2p[lba] == ppn:
            self._l2p[lba] = -1
            self._p2l[ppn] = -1
            self._release(ppn // self._pps)
        self.stats.crc_detected_corruptions += 1
        self.events.record(
            FdpEvent(
                FdpEventType.MEDIA_ERROR,
                timestamp_ns=now_ns,
                pages=1,
                superblock=ppn // self._pps,
            )
        )

    def _latent_read_checks(
        self, lba: int, npages: int, now_ns: int, done_ns: int
    ) -> int:
        """End-to-end verification + ECC outcome ladder for host reads.

        Runs after PR 1's hard-fault injection so fault-free devices
        stay bit-identical.  Per mapped page:

        1. Verify the OOB CRC against the stored payload.  A mismatch
           is *detected* silent corruption: the page is poisoned (see
           :meth:`_poison_page`) and the read completes with UECC —
           the device-layer retry then observes the LBA unmapped.
        2. Record read disturb on the page's wordline neighbours.
        3. Classify the page's raw bit-error level (disturb + wear-
           accelerated retention) on the ladder: clean; correctable
           (SMART counter + latency penalty); soft-decode retry
           (bounded re-reads charged); uncorrectable (UECC raised to
           the retry path).

        Returns the command's completion time, pushed out by any
        correction penalties.
        """
        lat = self.latent
        l2p = self._l2p
        oob = self._oob
        pps = self._pps
        for cur in range(lba, lba + npages):
            ppn = l2p[cur]
            if ppn < 0:
                continue
            rec = oob[ppn]
            if (
                rec is not None
                and rec.crc is not None
                and payload_crc(rec.payload) != rec.crc
            ):
                self._poison_page(cur, ppn, now_ns)
                raise UncorrectableReadError(
                    f"end-to-end CRC mismatch at LBA {cur} (ppn {ppn}, "
                    f"superblock {ppn // pps}): silent corruption detected",
                    lba=cur,
                    ppn=ppn,
                )
            if lat is None:
                continue
            lat.note_read(ppn)
            level = 0.0
            if rec is not None:
                sb = self.superblocks[ppn // pps]
                level = lat.error_level(
                    ppn,
                    self._seq - rec.seq,
                    retention_acceleration(
                        sb.erase_count, lat.config.wear_factor
                    ),
                )
            outcome = lat.classify(level)
            if outcome == OUTCOME_CLEAN:
                continue
            if outcome == OUTCOME_CORRECTABLE:
                self.stats.reads_corrected += 1
                done_ns = self.latency.stall(
                    done_ns, lat.config.correctable_penalty_ns
                )
                continue
            if outcome == OUTCOME_SOFT_RETRY:
                retries = lat.soft_retries_for(level)
                self.stats.reads_corrected += 1
                self.stats.soft_decode_retries += retries
                done_ns = self.latency.stall(
                    done_ns, retries * self.latency.timings.read_ns
                )
                continue
            # OUTCOME_UECC: the raw bit-error level exceeds what even
            # soft decode can recover.  Same surface as PR 1's UECC.
            self.stats.read_uecc_errors += 1
            self.events.record(
                FdpEvent(
                    FdpEventType.MEDIA_ERROR,
                    timestamp_ns=now_ns,
                    pages=1,
                    superblock=ppn // pps,
                )
            )
            raise UncorrectableReadError(
                f"uncorrectable read error at LBA {cur} (ppn {ppn}, "
                f"superblock {ppn // pps}): raw bit-error level "
                f"{level:.2f} exceeds soft-decode capability",
                lba=cur,
                ppn=ppn,
            )
        return done_ns

    def _check_online(self) -> None:
        if self._offline:
            raise DeviceOfflineError(
                "device lost power; call recover() before issuing I/O"
            )

    def _tear_current_page(self, stream: StreamKey) -> None:
        """Consume the page that was mid-program when power died.

        The NAND cell array saw a partial program pulse: the page is
        spent (it cannot be programmed again without an erase) and its
        OOB integrity check will fail at recovery.
        """
        sb = self._write_points.get(stream)
        if sb is None or sb.write_ptr >= self._pps:
            return
        ppn = sb.index * self._pps + sb.write_ptr
        sb.write_ptr += 1
        self._seq += 1
        self._oob[ppn] = OobRecord(-1, self._seq, stream, None, False)
        self.stats.torn_pages_discarded += 1

    def _host_page_hooks(
        self, lba: int, stream: StreamKey, now_ns: int, payload: object
    ) -> object:
        """Consult the injectors about one host page, before anything
        of it is programmed; returns the content the media will hold.

        Power loss first: the page at the write pointer is torn and the
        command dies with :class:`PowerLossError`.  Then silent
        corruption, which stores mutated content under the CRC of the
        *host's* data — undetectable until some layer verifies.  GC and
        scrub copies come through neither: they are capacitor-backed,
        and a copy carries whatever its source held.
        """
        if self.faults is not None and self.faults.power_loss_on_program():
            self._tear_current_page(stream)
            raise PowerLossError(
                f"power lost during host page program (LBA {lba}, "
                f"stream {stream})",
                lba=lba,
                now_ns=now_ns,
            )
        latent = self.latent
        if latent is not None and latent.corrupt_program(lba):
            return latent.corrupted(payload)
        return payload

    def _program_extent(
        self,
        sb: Superblock,
        stream: StreamKey,
        count: int,
        lba: int,
        payload: object,
        crc: Optional[int],
    ) -> int:
        """Map, stamp and journal ``count`` consecutive LBAs from ``lba``
        at ``sb``'s write pointer: the chunk body of :meth:`write_range`,
        the one place a host page is programmed.  The caller made sure
        they fit and closes a filled write point.  Returns the first
        physical page.

        Old mappings are invalidated in any order (no GC can fire
        mid-chunk), so counted per superblock.  Sequence numbers, OOB
        records and journal entries (so also its flush boundaries) stay
        per page: a chunk leaves the trail its pages would leave
        programmed one at a time.
        """
        pps = self._pps
        base = sb.index * pps + sb.write_ptr
        seq = self._seq + 1
        if count == 1:
            old = self._l2p[lba]
            if old >= 0:
                self._release(old // pps)
            self._l2p[lba] = base
            self._p2l[base] = lba
        else:
            l2p = self._l2p_np[lba : lba + count]
            old = l2p[l2p >= 0]
            if old.size:
                first = int(old.min()) // pps
                if first == int(old.max()) // pps:  # usual: one superblock
                    self._release(first, old.size)
                else:
                    counts = np.bincount(old // pps - first).tolist()
                    for off, n in enumerate(counts):
                        if n:
                            self._release(first + off, n)
            l2p[:] = np.arange(base, base + count, dtype=np.intc)
            self._p2l_np[base : base + count] = np.arange(
                lba, lba + count, dtype=np.intc
            )
        self._oob.fill_run(base, count, lba, seq, stream, payload, crc)
        self._journal.append_run(seq, lba, base, count)
        self.stats.host_pages_written += count
        self.stats.nand_pages_written += count
        self.stream_host_pages[stream] = (
            self.stream_host_pages.get(stream, 0) + count
        )
        self._pages_since_checkpoint += count
        self._seq += count
        sb.write_ptr += count
        sb.valid_pages += count
        return base

    def _program_moved(
        self, stream: StreamKey, lbas: np.ndarray, src: List[int], now_ns: int
    ) -> int:
        """Program copies of the leading live pages of ``src`` (LBAs
        ``lbas``, an ``intc`` array) at ``stream``'s write point: as
        many as fit in its superblock — one, under a fault model, which
        may fail any single program.  Returns how many; the caller
        gives up the sources and charges the copies.

        This is the one place GC and scrub program a page.  Payloads
        and CRCs carry over, so corruption that predates the move stays
        detectable at the new location; a copy gets a fresh sequence
        number, so recovery orders it after the original.
        """
        sb = self._writable(stream, lbas[0], now_ns)
        room = 1 if self.faults is not None else self._pps - sb.write_ptr
        if room < len(src):
            lbas = lbas[:room]
            src = src[:room]
        count = len(src)
        base = sb.index * self._pps + sb.write_ptr
        seq = self._seq + 1
        if count == 1:
            lba = int(lbas[0])
            self._l2p[lba] = base
            self._p2l[base] = lba
            self._journal.append(seq, lba, base)
        else:
            self._l2p_np[lbas] = np.arange(base, base + count, dtype=np.intc)
            self._p2l_np[base : base + count] = lbas
            self._journal.append_moves(seq, lbas.tolist(), base)
        self._oob.fill_moved(base, src, lbas, seq, stream)
        self._seq += count
        sb.write_ptr += count
        sb.valid_pages += count
        if sb.write_ptr == self._pps:
            self._close_write_point(stream, now_ns)
        return count

    def write_range(
        self,
        lba: int,
        npages: int,
        pid: Optional[PlacementIdentifier] = None,
        now_ns: int = 0,
        payload: object = None,
    ) -> int:
        """Write ``npages`` consecutive pages as one striped command.

        The whole range is charged as a single multi-page operation, so
        sequential region flushes benefit from die/plane parallelism
        instead of serializing page by page.

        ``payload`` is an opaque object stored in each page's OOB area,
        modelling the command's content; :meth:`read_payload` returns
        it, including after a power cut + recovery — which is how the
        cache layer verifies seal markers and bucket checksums
        honestly.

        A scripted power cut mid-command raises
        :class:`~repro.ssd.errors.PowerLossError` whose
        ``pages_durable`` says how many leading pages survived; the
        command is *not* acknowledged and the device is offline until
        :meth:`recover`.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        if self._offline:
            self._check_online()
        if lba < 0 or lba + npages > self._logical_pages:
            self._check_lba(lba)
            self._check_lba(lba + npages - 1)
        if self.scrubber is not None:
            self.scrubber.maybe_step(self, now_ns)
        try:
            stream = self._host_streams[pid]
        except KeyError:
            stream = self._host_stream(pid)
        hooked = self._page_hooks
        # Pages no hook counts still advance the latent plan's op_index.
        unhooked_latent = None if hooked else self.latent
        # One CRC per command, of the host's data: every page of the
        # range stores the same payload object.
        crc = payload_crc(payload) if self._protect else None
        stored = payload
        pps = self._pps
        ppns: List[int] = []
        cur = lba
        end = lba + npages
        try:
            # The range goes down in chunks that end at reclaim-unit
            # (superblock) boundaries, or after one page when an
            # injector has to see each page first.
            while cur < end:
                if hooked:
                    stored = self._host_page_hooks(cur, stream, now_ns, payload)
                    sb = None
                else:
                    sb = self._write_points.get(stream)
                if sb is None:
                    # Invalidate before allocating: opening a superblock
                    # can start GC, which must not migrate the copy this
                    # page supersedes.  Pages later in a chunk allocate
                    # nothing, so they are invalidated with the chunk.
                    old = self._l2p[cur]
                    if old >= 0:
                        self._release(old // pps)
                        self._l2p[cur] = -1
                    sb = self._writable(stream, cur, now_ns)
                chunk = 1 if hooked else pps - sb.write_ptr
                if chunk > end - cur:
                    chunk = end - cur
                if unhooked_latent is not None:
                    unhooked_latent.host_program_ops += chunk
                base = self._program_extent(sb, stream, chunk, cur, stored, crc)
                ppns.extend(range(base, base + chunk))
                cur += chunk
                if sb.write_ptr == pps:
                    self._close_write_point(stream, now_ns)
        except PowerLossError as exc:
            exc.lba = lba
            exc.npages = npages
            exc.pages_durable = len(ppns)
            self.power_cut(now_ns, _torn_mid_command=True)
            raise
        # The hooks below are called only when they have work to do.
        done = self.latency.service(now_ns, WRITE, npages)
        if self.faults is not None:
            done = self._inject_host_spike(done)
        self._inflight.append(tuple.__new__(_InflightWrite, (lba, npages, ppns, done)))
        if self._pages_since_checkpoint >= self.checkpoint_interval_pages:
            self._maybe_checkpoint()
        return done

    def write_arrays(
        self,
        lbas,
        npages_seq,
        pid: Optional[PlacementIdentifier] = None,
        now_ns: int = 0,
        payloads=None,
    ) -> List[int]:
        """Write an array of commands closed-loop, in one call.

        ``lbas[i]`` / ``npages_seq[i]`` (and ``payloads[i]``) describe
        command *i*; command 0 is issued at ``now_ns`` and each later
        one at the previous command's completion time — ``now =
        write_range(...)`` per command, which is all this is.  Returns
        the per-command completion times (the last entry is the batch's
        final clock).  A media error or power cut propagates as
        :meth:`write_range` raises it, with every earlier command's
        effects in place.  The columns may be numpy arrays.
        """
        if isinstance(lbas, np.ndarray):
            lbas = lbas.tolist()
        if isinstance(npages_seq, np.ndarray):
            npages_seq = npages_seq.tolist()
        if payloads is None:
            payloads = [None] * len(lbas)
        dones: List[int] = []
        now = now_ns
        for lba, npages, payload in zip(lbas, npages_seq, payloads):
            now = self.write_range(lba, npages, pid, now, payload)
            dones.append(now)
        return dones

    def read(self, lba: int, now_ns: int = 0) -> Tuple[bool, int]:
        """Read one page: :meth:`read_range` of one.

        Returns ``(mapped, completion_ns)`` where ``mapped`` says
        whether the LBA currently holds data (reading a deallocated LBA
        returns zeroes on a real device).
        """
        return self.read_range(lba, 1, now_ns)

    def read_range(
        self, lba: int, npages: int, now_ns: int = 0
    ) -> Tuple[bool, int]:
        """Read ``npages`` as one striped command.

        Returns ``(all_mapped, completion_ns)``.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        if self._offline:
            self._check_online()
        if lba < 0 or lba + npages > self._logical_pages:
            self._check_lba(lba)
            self._check_lba(lba + npages - 1)
        if self.scrubber is not None:
            self.scrubber.maybe_step(self, now_ns)
        self.stats.host_pages_read += npages
        # The L2P map is a flat array("i"), so the mapped-range check is
        # one C-level slice + min instead of a Python loop per page.
        all_mapped = min(self._l2p[lba : lba + npages]) >= 0
        done = self.latency.service(now_ns, READ, npages)
        if self.faults is not None:
            done = self._inject_host_spike(done)
            self._inject_read_faults(lba, npages, now_ns)
        if self._protect:
            done = self._latent_read_checks(lba, npages, now_ns, done)
        return all_mapped, done

    def deallocate(self, lba: int, npages: int = 1) -> int:
        """TRIM ``npages`` starting at ``lba``; returns pages invalidated.

        Deallocations are journaled and the journal is flushed
        synchronously: a TRIM the host observed as complete must never
        be forgotten by recovery, or the stale mapping would resurrect
        as a phantom.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        self._check_online()
        self._check_lba(lba)
        self._check_lba(lba + npages - 1)
        if self.scrubber is not None:
            self.scrubber.maybe_step(self, self.latency.busy_until)
        # Wholly unmapped ranges (common for region TRIMs after a GC-
        # style eviction) are detected with one array-slice max — no
        # mapping changes, no journal traffic, no write barrier.
        if max(self._l2p[lba : lba + npages]) < 0:
            return 0
        invalidated = 0
        for cur in range(lba, lba + npages):
            ppn = self._l2p[cur]
            if ppn < 0:
                continue
            self._release(ppn // self._pps)
            self._l2p[cur] = -1
            invalidated += 1
            self._seq += 1
            self._journal.append(self._seq, cur, -1)
        if invalidated:
            self._journal.force_flush()
            # The synchronous flush is a write barrier: once it lands
            # on media, every page program sequenced before it landed
            # too, so commands issued earlier can no longer tear in a
            # later power cut.
            self._inflight.clear()
        self.stats.pages_deallocated += invalidated
        return invalidated

    # ------------------------------------------------------------------
    # crash consistency: checkpoint, power cut, recovery
    # ------------------------------------------------------------------

    def _take_checkpoint(self) -> None:
        """Persist a full L2P copy and compact the journal behind it."""
        self._journal.force_flush()
        self._checkpoints.append(L2pCheckpoint(self._seq, self._l2p))
        if len(self._checkpoints) > CHECKPOINTS_KEPT:
            del self._checkpoints[: -CHECKPOINTS_KEPT]
        # Journal entries at or before the *oldest retained* checkpoint
        # can never be needed again (a retroactive tear falls back at
        # most one checkpoint).
        self._journal.compact_upto(self._checkpoints[0].seq)

    def _maybe_checkpoint(self) -> None:
        if self._pages_since_checkpoint >= self.checkpoint_interval_pages:
            self._pages_since_checkpoint = 0
            self._take_checkpoint()

    @property
    def powered_off(self) -> bool:
        """Whether the device is between power_cut() and recover()."""
        return self._offline

    def power_cut(
        self, now_ns: Optional[int] = None, *, _torn_mid_command: bool = False
    ) -> PowerCutReport:
        """Lose power at ``now_ns``: drop volatile state, tear in-flight
        writes, and take the device offline.

        ``now_ns`` defaults to the device's busy horizon — a quiescent
        cut with nothing in flight.  An earlier ``now_ns`` tears every
        recently issued command whose completion lies beyond it, at a
        single deterministic, seed-driven point in program order
        (power dies at one instant; everything sequenced after it is
        gone).  The report lists each torn command's durable prefix so
        a shadow reference can reconcile exactly.

        Volatile state (L2P, write points, free list, journal buffer)
        is *not* cleared here — recovery rebuilds it from media and the
        tests compare against the pre-cut mapping — but the device
        rejects all I/O until :meth:`recover` runs.
        """
        if self._offline:
            return PowerCutReport(now_ns=now_ns or 0, tear_seq=self._seq)
        if now_ns is None:
            now_ns = self.latency.busy_until
        torn_writes: List[TornWrite] = []
        discarded = 0
        tear_seq = self._seq
        if not _torn_mid_command:
            pending = [w for w in self._inflight if w.ack_ns > now_ns]
            if pending:
                # Flatten to (seq-ordered) pages and pick the one tear
                # point every in-flight command shares.
                flat: List[Tuple[int, int]] = []  # (ppn, command idx)
                for ci, w in enumerate(pending):
                    for ppn in w.ppns:
                        flat.append((ppn, ci))
                rng = random.Random(
                    (self.power_seed << 8) ^ (self.stats.power_cuts + 1)
                )
                keep = rng.randrange(len(flat) + 1)
                durable_per_cmd = [0] * len(pending)
                # Resolve tear_seq from the original OOB records before
                # any of them are overwritten below.
                if keep:
                    last_rec = self._oob[flat[keep - 1][0]]
                    tear_seq = last_rec.seq if last_rec else self._seq
                else:
                    first_rec = self._oob[flat[0][0]]
                    tear_seq = (
                        first_rec.seq - 1 if first_rec else self._seq
                    )
                for pi, (ppn, ci) in enumerate(flat):
                    if pi < keep:
                        durable_per_cmd[ci] += 1
                        continue
                    rec = self._oob[ppn]
                    lba = rec.lba if rec is not None else -1
                    if pi == keep:
                        # The page mid-program at the instant of the
                        # cut: consumed, fails its OOB check.
                        self._oob[ppn] = OobRecord(
                            -1,
                            rec.seq if rec is not None else self._seq,
                            rec.stream if rec is not None else None,
                            None,
                            False,
                        )
                        self.stats.torn_pages_discarded += 1
                    else:
                        # Sequenced after the cut: never programmed.
                        self._oob[ppn] = None
                        sb = self.superblocks[ppn // self._pps]
                        if sb.write_ptr > ppn % self._pps:
                            sb.write_ptr = ppn % self._pps
                    if lba >= 0 and self._l2p[lba] == ppn:
                        self._l2p[lba] = -1
                        self._p2l[ppn] = -1
                        self._release(ppn // self._pps)
                    discarded += 1
                for ci, w in enumerate(pending):
                    torn_writes.append(
                        TornWrite(w.lba, w.npages, durable_per_cmd[ci])
                    )
        # The journal write describing anything past the tear cannot
        # have completed either; neither can a newer checkpoint.
        lost = self._journal.drop_volatile()
        lost += self._journal.truncate_after(tear_seq)
        cps_before = len(self._checkpoints)
        self._checkpoints = [
            cp for cp in self._checkpoints if cp.seq <= tear_seq
        ]
        self._inflight.clear()
        self._offline = True
        self.stats.power_cuts += 1
        self.events.record(
            FdpEvent(FdpEventType.POWER_LOSS, timestamp_ns=now_ns)
        )
        return PowerCutReport(
            now_ns=now_ns,
            tear_seq=tear_seq,
            torn_writes=tuple(torn_writes),
            pages_discarded=discarded,
            journal_entries_lost=lost,
            checkpoints_dropped=cps_before - len(self._checkpoints),
        )

    def recover(self, now_ns: Optional[int] = None) -> RecoveryReport:
        """Power-on recovery: rebuild all volatile state from media.

        Safe to call on a live (never-cut) device — the rebuild is then
        a consistency no-op that reproduces the current mapping.  Emits
        ``RECOVERY_COMPLETE`` and takes a fresh checkpoint so a
        follow-up cut recovers from a compact base.
        """
        if now_ns is None:
            now_ns = self.latency.busy_until
        report = rebuild_ftl_state(self)
        self._offline = False
        self._inflight.clear()
        self._pages_since_checkpoint = 0
        self.stats.recoveries += 1
        self.events.record(
            FdpEvent(
                FdpEventType.RECOVERY_COMPLETE,
                timestamp_ns=now_ns,
                pages=report.mappings_recovered,
            )
        )
        self._take_checkpoint()
        return report

    def run_scrub_pass(self, now_ns: Optional[int] = None):
        """Run one full patrol pass synchronously (see ``scrub.py``).

        Walks every CLOSED superblock and the programmed prefix of OPEN
        ones (verify-only), verifying CRCs and relocating pages past
        the refresh threshold.  Returns the
        scrubber's :class:`~repro.ssd.scrub.ScrubStatus`.
        """
        if self.scrubber is None:
            raise ValueError("no patrol scrubber attached to this device")
        self._check_online()
        if now_ns is None:
            now_ns = self.latency.busy_until
        return self.scrubber.run_full_pass(self, now_ns)

    def is_mapped(self, lba: int) -> bool:
        """Whether an LBA currently holds data (no I/O charged)."""
        self._check_lba(lba)
        return self._l2p[lba] >= 0

    def read_payload(self, lba: int, npages: int = 1) -> List[object]:
        """Media-truth page payloads for ``npages`` starting at ``lba``.

        Returns one entry per page: the payload stored by the write
        that produced the page's current data, or ``None`` for
        unmapped LBAs.  A verification hook — no latency or counters
        are charged, and it works on an offline device (it models the
        recovery tooling reading raw NAND).
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        self._check_lba(lba)
        self._check_lba(lba + npages - 1)
        out: List[object] = []
        for cur in range(lba, lba + npages):
            ppn = self._l2p[cur]
            if ppn < 0:
                out.append(None)
                continue
            rec = self._oob[ppn]
            out.append(rec.payload if rec is not None and rec.ok else None)
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def valid_page_total(self) -> int:
        """Live pages across the device (O(#superblocks))."""
        return sum(sb.valid_pages for sb in self.superblocks)

    def occupancy(self) -> float:
        """Fraction of physical pages currently holding live data."""
        return self.valid_page_total() / self.geometry.total_pages

    def effective_op_fraction(self) -> float:
        """Overprovisioning remaining after block retirement.

        Retired blocks shrink the physical pool while advertised
        capacity stays fixed, so effective OP = usable physical pages
        over logical pages, minus one.  Shrinking OP is what couples
        block retirement back into write amplification (GC has less
        slack, victims are fuller).
        """
        usable = (
            self.geometry.num_superblocks - self.stats.superblocks_retired
        ) * self._pps
        return usable / self.geometry.logical_pages - 1.0

    def wear_stats(self) -> WearStats:
        """Erase-count distribution (endurance telemetry)."""
        return collect_wear_stats(self.superblocks)

    def superblock_census(self) -> Dict[str, int]:
        """Counts of superblocks per state, for diagnostics and tests."""
        census = {s.value: 0 for s in SuperblockState}
        for sb in self.superblocks:
            census[sb.state.value] += 1
        return census

    def check_invariants(self) -> None:
        """Verify mapping/bookkeeping consistency; used by tests.

        Raises ``AssertionError`` on any violation.
        """
        pps = self._pps
        per_block = [0] * self.geometry.num_superblocks
        for lba in range(self.geometry.logical_pages):
            ppn = self._l2p[lba]
            if ppn < 0:
                continue
            assert self._p2l[ppn] == lba, (
                f"L2P/P2L disagree: lba={lba} ppn={ppn} p2l={self._p2l[ppn]}"
            )
            per_block[ppn // pps] += 1
        for sb in self.superblocks:
            assert sb.valid_pages == per_block[sb.index], (
                f"superblock {sb.index}: cached valid={sb.valid_pages} "
                f"actual={per_block[sb.index]}"
            )
            if sb.state in (SuperblockState.FREE, SuperblockState.RETIRED):
                assert sb.valid_pages == 0, (
                    f"{sb.state.value} superblock {sb.index} has valid pages"
                )
        retired = sum(
            1
            for sb in self.superblocks
            if sb.state is SuperblockState.RETIRED
        )
        assert retired == self.stats.superblocks_retired, (
            f"retired census {retired} != counter "
            f"{self.stats.superblocks_retired}"
        )
        # Write ledger: every NAND program is a host write, a GC
        # migration or a scrub relocation (DLWA's numerator, Eq. 1).
        s = self.stats
        ledger = (
            s.host_pages_written + s.gc_pages_migrated + s.scrub_pages_relocated
        )
        assert s.nand_pages_written == ledger, (
            f"nand_pages_written {s.nand_pages_written} != host + GC + "
            f"scrub writes {ledger}"
        )
        if self.scrubber is not None:
            by_ruh = sum(self.scrubber.relocated_by_ruh.values())
            assert by_ruh == s.scrub_pages_relocated, (
                f"scrub relocations by RUH {by_ruh} != counter "
                f"{s.scrub_pages_relocated}"
            )
        free_set = set(self._free)
        assert len(free_set) == len(self._free), "duplicate free entries"
        for idx in free_set:
            assert (
                self.superblocks[idx].state is SuperblockState.FREE
            ), f"superblock {idx} in free pool but {self.superblocks[idx].state}"
        closed_scan = [
            sb.index
            for sb in self.superblocks
            if sb.state is SuperblockState.CLOSED
        ]
        assert self._closed == closed_scan, (
            f"closed-set cache {self._closed} != scan {closed_scan}"
        )
        zero_scan = [
            idx
            for idx in closed_scan
            if self.superblocks[idx].valid_pages == 0
        ]
        assert self._zero_closed == zero_scan, (
            f"zero-closed cache {self._zero_closed} != scan {zero_scan}"
        )
