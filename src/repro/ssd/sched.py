"""Multi-queue I/O scheduler: NVMe-style queues over parallel channels.

The paper's second headline result — beyond DLWA ≈ 1.03 — is that FDP
segregation cuts p99 read latency because SOC reads stop queueing
behind GC traffic (Figure 13).  The busy-clock model in
:mod:`repro.ssd.latency` charges every operation on one shared
timeline, so per-command latency is a fixed service cost plus whatever
the single server happens to be doing; there is no queue to stand in,
and therefore no tail to measure.  This module adds the queueing layer:

* **Submission/completion queues.** Hosts create named queues (the
  hybrid cache uses ``"soc"``/``"loc"``/``"meta"``) with a bounded
  depth; :meth:`MultiQueueScheduler.submit` times an async command as
  it is submitted and holds its :class:`IoCompletion` until
  :meth:`MultiQueueScheduler.poll` drains the queue in completion-time
  order, raising :class:`QueueFullError` when the queue's unpolled
  window is full.  Each queue keeps a monotone completion clock (the
  high-water mark of its completion times never regresses).
* **Synchronous commands** (every command the cache issues) are timed
  the same way by :meth:`MultiQueueScheduler.issue`, at queue depth 1:
  they never enter a queue.
* **Bounded channels.** The device exposes ``dies × planes_per_die``
  parallel channels (a superblock stripes across all of them, so one
  channel stands for "the stripe is busy with this superblock's
  command").  A command dispatched to channel *c* starts no earlier
  than the channel is free; commands on different channels overlap.
* **Background die occupancy.** The FTL reports GC migrations, erases,
  and scrub work as *spans* on the victim superblock's channel instead
  of only charging the busy clock.  Spans are split into bounded
  segments: a host command arriving mid-span waits only for the
  segment in flight (preemption at segment boundaries), and the
  remaining segments resume behind it — exactly the suspend/resume
  behaviour modern controllers implement for erase/program suspend.

The scheduler is a **timing overlay**: it never touches FTL state.
State mutations (L2P, OOB, journal, stats) execute synchronously in
submission order whether or not a scheduler is attached; the scheduler
only decides *when* each command completes.  That is what keeps a
scheduled device bit-identical to an unscheduled one for everything
except latency (enforced by the differential arm in
``tests/test_differential_batch.py``).

Everything is integer nanoseconds and deterministic: same submissions,
same completions, no wall clock, no RNG.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from operator import attrgetter
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from ..faults.failslow import FailSlowModel
from .errors import QueueFullError
from .geometry import Geometry
from .latency import (
    ERASE,
    GC_MIGRATE,
    READ,
    SCRUB_RELOCATE,
    SCRUB_SCAN,
    TRIM,
    WRITE,
    NandTimings,
)

__all__ = [
    "QueueFullError",
    "SchedConfig",
    "LatencyHistogram",
    "IoCompletion",
    "MultiQueueScheduler",
]

# Background span kinds the FTL/scrubber report.
_BACKGROUND_KINDS = (GC_MIGRATE, ERASE, SCRUB_SCAN, SCRUB_RELOCATE)

# Poll order: completion time, then submission (tickets are unique).
_COMPLETION_ORDER = attrgetter("complete_ns", "ticket")


@dataclasses.dataclass(frozen=True)
class SchedConfig:
    """Multi-queue scheduler policy knobs.

    ``queue_depth`` bounds each queue's outstanding (submitted, not yet
    polled) commands.  ``channels`` overrides the number of
    parallel flash channels, which otherwise derives from the geometry
    as ``dies × planes_per_die``.  ``segment_pages`` is the preemption
    granularity of background spans: a GC migration of N pages becomes
    ⌈N / segment_pages⌉ boundary-preemptible segments (erases are one
    indivisible segment — real suspend granularity is far coarser for
    erase, and the 3 ms erase is precisely the tail the model must
    keep).
    """

    queue_depth: int = 32
    channels: Optional[int] = None
    segment_pages: int = 8

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.channels is not None and self.channels < 1:
            raise ValueError("channels must be >= 1 or None")
        if self.segment_pages < 1:
            raise ValueError("segment_pages must be >= 1")


# --------------------------------------------------------------------
# log-bucketed histogram
# --------------------------------------------------------------------

# Sub-bucket resolution: 2**_SUB_BITS linear sub-buckets per power of
# two, i.e. worst-case quantization error of 1/16 ≈ 6 % — plenty for
# p50/p99/p999 regression tracking while keeping the golden fixtures
# small and stable.
_SUB_BITS = 4
_SUB_COUNT = 1 << _SUB_BITS


class LatencyHistogram:
    """Log-bucketed latency histogram (HDR-histogram style).

    Values are non-negative integer nanoseconds.  Buckets are exact for
    values below ``2**_SUB_BITS`` and geometric above, with
    ``2**_SUB_BITS`` linear sub-buckets per octave.  Percentiles return
    the *upper bound* of the containing bucket — a deterministic
    integer, so goldens compare exactly across platforms.  Histograms
    with the same bucketing merge by adding counts, which is how the
    soak aggregates per-queue read histograms into one device-wide
    tail.
    """

    __slots__ = ("counts", "count", "sum_ns", "min_ns", "max_ns")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None

    @staticmethod
    def bucket_index(value_ns: int) -> int:
        """Bucket index for a value (monotone in the value)."""
        if value_ns < 0:
            raise ValueError("latency must be non-negative")
        if value_ns < _SUB_COUNT:
            return value_ns
        exp = value_ns.bit_length() - 1 - _SUB_BITS
        # Sub-bucket in [_SUB_COUNT, 2*_SUB_COUNT); index is contiguous
        # across octaves.
        return (exp << _SUB_BITS) + (value_ns >> exp)

    @staticmethod
    def bucket_upper_bound(index: int) -> int:
        """Largest value mapping to ``index`` (the reported quantile)."""
        if index < 0:
            raise ValueError("bucket index must be non-negative")
        if index < _SUB_COUNT:
            return index
        # Sub-buckets live in [_SUB_COUNT, 2*_SUB_COUNT), so the octave
        # is one less than the raw high bits.
        exp = (index >> _SUB_BITS) - 1
        sub = (index & (_SUB_COUNT - 1)) | _SUB_COUNT
        return ((sub + 1) << exp) - 1

    def record(self, value_ns: int, n: int = 1) -> None:
        if n <= 0:
            raise ValueError("count must be positive")
        # bucket_index(), inlined: every host command is recorded.
        if value_ns < _SUB_COUNT:
            if value_ns < 0:
                raise ValueError("latency must be non-negative")
            idx = value_ns
        else:
            exp = value_ns.bit_length() - 1 - _SUB_BITS
            idx = (exp << _SUB_BITS) + (value_ns >> exp)
        counts = self.counts
        counts[idx] = counts[idx] + n if idx in counts else n
        self.count += n
        self.sum_ns += value_ns * n
        if self.min_ns is None or value_ns < self.min_ns:
            self.min_ns = value_ns
        if self.max_ns is None or value_ns > self.max_ns:
            self.max_ns = value_ns

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s counts into this histogram."""
        for idx, n in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + n
        self.count += other.count
        self.sum_ns += other.sum_ns
        if other.min_ns is not None and (
            self.min_ns is None or other.min_ns < self.min_ns
        ):
            self.min_ns = other.min_ns
        if other.max_ns is not None and (
            self.max_ns is None or other.max_ns > self.max_ns
        ):
            self.max_ns = other.max_ns

    def percentile(self, p: float) -> int:
        """Bucket upper bound at percentile ``p`` (0 when empty)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0
        # Rank of the target sample, 1-based, nearest-rank definition.
        rank = max(1, -(-int(p * self.count) // 100))
        seen = 0
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen >= rank:
                return self.bucket_upper_bound(idx)
        return self.bucket_upper_bound(max(self.counts))

    def p50(self) -> int:
        return self.percentile(50.0)

    def p99(self) -> int:
        return self.percentile(99.0)

    def p999(self) -> int:
        return self.percentile(99.9)

    def mean(self) -> float:
        return self.sum_ns / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly image (golden fixtures round-trip this)."""
        return {
            "count": self.count,
            "sum_ns": self.sum_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "counts": {str(idx): n for idx, n in sorted(self.counts.items())},
        }

    @classmethod
    def from_dict(cls, image: Mapping[str, object]) -> "LatencyHistogram":
        hist = cls()
        hist.count = int(image["count"])
        hist.sum_ns = int(image["sum_ns"])
        hist.min_ns = None if image["min_ns"] is None else int(image["min_ns"])
        hist.max_ns = None if image["max_ns"] is None else int(image["max_ns"])
        hist.counts = {
            int(idx): int(n) for idx, n in dict(image["counts"]).items()
        }
        return hist


# --------------------------------------------------------------------
# scheduler internals
# --------------------------------------------------------------------


@dataclasses.dataclass
class IoCompletion:
    """One completion-queue entry of an async command.

    ``complete_ns`` is the raw device completion time (CQ entries post
    as commands finish, out of submission order, like real NVMe);
    ``latency_ns = complete_ns - submit_ns``.  ``result`` carries the
    op's return value (write → ack time, read → all-mapped flag, trim →
    pages invalidated); ``error`` carries the MediaError a failed
    command completed with (the NVMe status code analogue) — state-side
    effects of the failure already happened at submit.

    A plain ``__slots__`` record (a frozen dataclass pays
    ``object.__setattr__`` per field); the slots are spelled out because
    ``dataclass(slots=True)`` needs Python 3.10, which rules out field
    defaults.
    """

    __slots__ = (
        "ticket", "queue", "op", "lba", "npages", "submit_ns",
        "complete_ns", "latency_ns", "ok", "result", "error",
    )

    ticket: int
    queue: str
    op: str
    lba: int
    npages: int
    submit_ns: int
    complete_ns: int
    latency_ns: int
    ok: bool
    result: object
    error: Optional[BaseException]


class _Queue:
    __slots__ = ("name", "done", "clock_ns", "histograms")

    def __init__(self, name: str) -> None:
        self.name = name
        # Timed but not yet polled: the queue's outstanding window.
        self.done: List[IoCompletion] = []
        self.clock_ns = 0  # monotone CQ clock
        self.histograms: Dict[str, LatencyHistogram] = {}


class MultiQueueScheduler:
    """Deterministic event-clock scheduler over bounded flash channels.

    One instance is attached to one FTL generation (``format()``
    rebuilds it).  Every command is timed when it is issued, by
    :meth:`issue`: a sync one directly, an async one through
    :meth:`submit`, which keeps its completion for :meth:`poll` — so
    the per-queue histograms see every host command.
    """

    def __init__(
        self,
        config: Optional[SchedConfig] = None,
        *,
        geometry: Optional[Geometry] = None,
        failslow: Optional[FailSlowModel] = None,
    ) -> None:
        self.config = config or SchedConfig()
        self.timings = NandTimings()
        if self.config.channels is not None:
            self.channels = self.config.channels
        elif geometry is not None:
            self.channels = geometry.dies * geometry.planes_per_die
        else:
            self.channels = 4
        # Fail-slow timing overlay: stretches command and background
        # segment durations, never touches any other scheduler state.
        self.failslow = failslow
        if self.failslow is not None:
            planes = geometry.planes_per_die if geometry is not None else 1
            self.failslow.bind(self.channels, planes)
        # Per-channel service horizon and pending background segments
        # (kind, duration_ns, ready_ns) in arrival order.
        self._free_at: List[int] = [0] * self.channels
        self._backlog: List[Deque[Tuple[str, int, int]]] = [
            deque() for _ in range(self.channels)
        ]
        self._queues: Dict[str, _Queue] = {}
        # host_duration() memo, keyed (op, npages).
        self._durations: Dict[Tuple[str, int], int] = {}
        # Telemetry: background occupancy by kind, and how often a host
        # command had to wait behind a background segment.
        self.background_ns: Dict[str, int] = dict.fromkeys(_BACKGROUND_KINDS, 0)
        self.background_segments: Dict[str, int] = dict.fromkeys(
            _BACKGROUND_KINDS, 0
        )
        self.host_commands = 0
        self.host_wait_ns = 0
        self.gc_blocked_commands = 0

    # -- queue management ---------------------------------------------

    def queue(self, name: str) -> "_Queue":
        q = self._queues.get(name)
        if q is None:
            q = self._queues[name] = _Queue(name)
        return q

    def admit(self, name: str) -> "_Queue":
        """The named queue; raises :class:`QueueFullError` if its
        outstanding window (submitted, not yet polled) is at
        ``queue_depth``.  A command passes this before it changes any
        device state."""
        queues = self._queues
        q = queues[name] if name in queues else self.queue(name)
        if len(q.done) >= self.config.queue_depth:
            raise QueueFullError(
                f"queue {name!r} is full (depth "
                f"{self.config.queue_depth}); poll() completions before "
                "submitting more",
                queue=name,
                depth=self.config.queue_depth,
            )
        return q

    def gc_backlog_ns(self) -> int:
        """Background (GC/erase/scrub) work queued but not yet folded.

        Sums the pending background segments across all channels —
        device time already committed to relocation that host commands
        will have to wait behind.  Read-only: sensing never advances
        channel horizons, so polling this from an admission governor
        cannot perturb the timing model.
        """
        return sum(
            dur
            for backlog in self._backlog
            for (_kind, dur, _ready) in backlog
        )

    def histograms(self) -> Dict[str, Dict[str, LatencyHistogram]]:
        """Per-queue, per-op latency histograms (live references)."""
        return {name: q.histograms for name, q in self._queues.items()}

    def clear_histograms(self) -> None:
        """Drop every queue's recorded latencies (counters are kept).

        Measurement-window control for the soaks: replay a warm-up
        prefix, clear, and the histograms then hold only steady-state
        latencies — the telemetry counters (``host_wait_ns``,
        ``gc_blocked_commands``, ``background_ns``) still cover the
        whole run.
        """
        for q in self._queues.values():
            q.histograms.clear()

    def merged_histogram(self, op: str) -> LatencyHistogram:
        """One histogram merging every queue's ``op`` latencies."""
        merged = LatencyHistogram()
        for q in self._queues.values():
            hist = q.histograms.get(op)
            if hist is not None:
                merged.merge(hist)
        return merged

    # -- durations -----------------------------------------------------

    def host_duration(self, op: str, npages: int) -> int:
        """Channel occupancy of one host command (the busy-clock model's
        :meth:`~repro.ssd.latency.NandTimings.service_ns`)."""
        if op not in (READ, WRITE, TRIM):
            raise ValueError(f"unknown host op {op!r}")
        return self.timings.service_ns(op, npages)

    def channel_for(self, superblock_index: int) -> int:
        """Deterministic superblock → channel mapping."""
        return superblock_index % self.channels

    # -- background spans ---------------------------------------------

    def note_background(
        self, kind: str, superblock_index: int, npages: int, now_ns: int
    ) -> None:
        """Queue a GC/scrub/erase span on the superblock's channel.

        The span is split into boundary-preemptible segments of at most
        ``segment_pages`` pages (one indivisible segment for erases).
        Segments become runnable at ``now_ns`` and occupy the channel
        lazily: they are folded into the channel's horizon when the
        next host command for that channel dispatches, which is when
        their interference becomes observable.  ``Ftl._charge`` is the
        one caller, and the busy clock it charges first rejects an
        unknown ``kind``.
        """
        channel = self.channel_for(superblock_index)
        service_ns = self.timings.service_ns
        if kind == ERASE:
            segments = [service_ns(ERASE)]
        else:
            if npages <= 0:
                return
            seg = self.config.segment_pages
            segments = [
                service_ns(kind, min(seg, npages - off))
                for off in range(0, npages, seg)
            ]
        backlog = self._backlog[channel]
        failslow = self.failslow
        for dur in segments:
            if failslow is not None:
                dur = failslow.scale_background(channel, dur)
            backlog.append((kind, dur, now_ns))
            self.background_ns[kind] += dur
            self.background_segments[kind] += 1

    def _advance_channel(self, channel: int, horizon_ns: int) -> int:
        """Run background segments that start before ``horizon_ns``.

        Returns the channel's free time for a host command arriving at
        ``horizon_ns``: every queued segment whose start (the later of
        its ready time and the channel horizon) falls *before* the
        arrival runs to completion — the segment in flight is never
        preempted — while segments that would start at or after the
        arrival yield at the boundary and resume behind the host
        command.
        """
        free = self._free_at[channel]
        backlog = self._backlog[channel]
        while backlog:
            kind, dur, ready = backlog[0]
            start = ready if ready > free else free
            if start >= horizon_ns:
                break
            backlog.popleft()
            free = start + dur
        self._free_at[channel] = free
        return free

    # -- submission / completion --------------------------------------

    def submit(
        self,
        queue: str,
        op: str,
        *,
        lba: int,
        npages: int,
        channel: int,
        now_ns: int,
        result: object = None,
        error: Optional[BaseException] = None,
    ) -> int:
        """Time one async command; returns its ticket.

        The command is timed now, as :meth:`issue` times a sync one,
        and its :class:`IoCompletion` waits in the queue until
        :meth:`poll` drains it.  Raises :class:`QueueFullError` when
        the queue's outstanding window is full (see :meth:`admit`).
        State side effects have already happened by the time this is
        called — the scheduler only assigns the completion time.
        """
        q = self.admit(queue)
        if not 0 <= channel < self.channels:
            raise ValueError(f"channel {channel} outside [0, {self.channels})")
        ticket = self.host_commands  # tickets count host commands
        complete = self.issue(q, op, npages, channel, now_ns)
        q.done.append(
            IoCompletion(
                ticket, queue, op, lba, npages, now_ns, complete,
                complete - now_ns, error is None, result, error,
            )
        )
        return ticket

    def issue(
        self, q: _Queue, op: str, npages: int, channel: int, now_ns: int
    ) -> int:
        """Time one command on ``q`` and record it; returns its raw
        completion time.

        ``q`` is what :meth:`admit` returned before the command changed
        any state.  Completions are raw device times (NVMe posts CQ
        entries as commands finish, out of submission order); the
        queue's clock is their high-water mark: clamping each
        completion to it would fake head-of-line blocking — a 70 µs
        read after a multi-ms write batch would inherit the batch's
        completion and dominate the read tail.
        """
        durations = self._durations
        if (op, npages) not in durations:
            durations[op, npages] = self.host_duration(op, npages)
        duration_ns = durations[op, npages]
        free = self._free_at[channel]
        if self._backlog[channel]:
            free = self._advance_channel(channel, now_ns)
        start = now_ns if now_ns > free else free
        if self.failslow is not None:
            duration_ns = self.failslow.adjust(channel, duration_ns)
        wait = start - now_ns
        if wait > 0:
            self.host_wait_ns += wait
            self.gc_blocked_commands += 1
        complete = start + duration_ns
        self._free_at[channel] = complete
        self.host_commands += 1
        if complete > q.clock_ns:
            q.clock_ns = complete
        histograms = q.histograms
        if op in histograms:
            hist = histograms[op]
        else:
            hist = histograms[op] = LatencyHistogram()
        hist.record(complete - now_ns)
        return complete

    def poll(
        self, queue: str, max_completions: Optional[int] = None
    ) -> List[IoCompletion]:
        """Drain up to ``max_completions`` entries from a queue's CQ,
        in completion-time order."""
        done = self.queue(queue).done
        if len(done) > 1:
            done.sort(key=_COMPLETION_ORDER)
        limit = (
            len(done) if max_completions is None else max(0, max_completions)
        )
        batch = done[:limit]
        del done[:limit]
        return batch

    def outstanding(self, queue: Optional[str] = None) -> int:
        """Commands submitted but not yet polled (one queue or all)."""
        if queue is not None:
            return len(self.queue(queue).done)
        return sum(len(q.done) for q in self._queues.values())
