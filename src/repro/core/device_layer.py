"""FDP-aware device layer (paper Section 5.4).

In the upstreamed CacheLib patch, SOC and LOC tag their I/Os with
placement handles; a data-placement-aware device layer translates each
handle to the FDP placement identifier, encodes it into the NVMe
placement directive fields (DTYPE/DSPEC), and submits the command over
an io_uring passthru queue pair.  This module reproduces that layering
over the simulated SSD:

* :class:`FdpAwareDevice` discovers the device's FDP capability,
  builds the :class:`PlacementHandleAllocator`, and performs the
  handle → PID → DSPEC → submit translation.  The DSPEC round-trip is
  executed for real (encode on submit, decode device-side) so the
  directive path is exercised, not just passed by reference.
* :class:`IoQueue` stands in for one io_uring queue pair.  The paper
  uses one QP per worker thread to avoid submission/completion
  synchronization; the simulator is single-threaded but keeps the same
  structure, and per-queue depth/counters are reported for tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.errors import MediaError, ProgramFailError, UncorrectableReadError
from ..fdp.ruh import PlacementIdentifier
from ..ssd.batch import OP_READ, OP_TRIM, OP_WRITE, BatchCommand, BatchOutcome
from ..ssd.device import SimulatedSSD
from .placement import DEFAULT_HANDLE, PlacementHandle, PlacementHandleAllocator

__all__ = ["IoQueue", "FdpAwareDevice"]

# NVMe Directive Type for data placement (TP4146).
DTYPE_DATA_PLACEMENT = 0x2
DTYPE_NONE = 0x0

# A Write Fault is resubmitted once: the FTL's in-device program retry
# has already absorbed most faults before one reaches the host.
MAX_WRITE_RETRIES = 1
# Host-side delay before the first resubmission; doubles per attempt.
RETRY_BACKOFF_NS = 100_000


class IoQueue:
    """One submission/completion queue pair (io_uring stand-in).

    Tracks per-queue media-error and retry counters, the way a real
    deployment attributes I/O errors to the worker thread that owns the
    queue pair.
    """

    __slots__ = (
        "name",
        "submitted",
        "completed",
        "read_errors",
        "write_errors",
        "retries",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.submitted = 0
        self.completed = 0
        self.read_errors = 0
        self.write_errors = 0
        self.retries = 0

    @property
    def in_flight(self) -> int:
        return self.submitted - self.completed


class FdpAwareDevice:
    """Translation layer between placement handles and the SSD.

    Parameters
    ----------
    ssd:
        The underlying (simulated) NVMe device.
    enable_placement:
        Cache-side FDP switch.  The allocator degrades to default
        handles when this is off or the device lacks FDP, so consumers
        run unchanged either way (Design Principle 2).
    max_read_retries:
        Bounded retry budget per read when the device reports a UECC.
        A UECC is often transient — controllers re-read with adjusted
        voltage thresholds — so reads default to a few attempts.  A
        Write Fault gets :data:`MAX_WRITE_RETRIES` resubmissions.  Each
        resubmission waits :data:`RETRY_BACKOFF_NS`, doubling per
        attempt (exponential backoff).
    """

    def __init__(
        self,
        ssd: SimulatedSSD,
        *,
        enable_placement: bool = True,
        max_read_retries: int = 3,
    ) -> None:
        if max_read_retries < 0:
            raise ValueError("max_read_retries must be non-negative")
        self.ssd = ssd
        self._page_size = ssd.page_size
        self.max_read_retries = max_read_retries
        # Automatic discovery of FDP features and SSD topology (§5.1):
        # the allocator is fed whatever PIDs the device advertises.
        pids = (
            list(ssd.fdp_config.placement_identifiers())
            if ssd.fdp_config is not None
            else []
        )
        self.allocator = PlacementHandleAllocator(
            pids, enable_placement=enable_placement
        )
        self._num_ruhs = ssd.fdp_config.num_ruhs if ssd.fdp_config else 0
        # What the device decodes from a handle's directive fields,
        # keyed by its PID's (reclaim group, RUH) — all the decode
        # depends on, and two ints hash without a Python frame where a
        # dataclass handle costs two per lookup.
        self._pids: Dict[Tuple[int, int], Optional[PlacementIdentifier]] = {}
        self._queues: Dict[str, IoQueue] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.writes_by_handle: Dict[str, int] = {}
        # Device-wide media-error accounting (sums of the per-queue
        # counters plus retry outcomes), surfaced by the cache metrics.
        self.read_errors = 0
        self.write_errors = 0
        self.read_retries = 0
        self.write_retries = 0
        self.retries_exhausted = 0

    # -- queue management --------------------------------------------

    def queue(self, worker: str = "worker-0") -> IoQueue:
        """The io_uring-style queue pair for one worker thread."""
        q = self._queues.get(worker)
        if q is None:
            q = IoQueue(worker)
            self._queues[worker] = q
        return q

    # -- directive encoding -------------------------------------------

    def _encode_directive(
        self, handle: PlacementHandle
    ) -> Tuple[int, Optional[int]]:
        """Handle → (DTYPE, DSPEC) exactly as the write command carries it."""
        if handle.is_default or self._num_ruhs == 0:
            return DTYPE_NONE, None
        assert handle.pid is not None
        return DTYPE_DATA_PLACEMENT, handle.pid.dspec(self._num_ruhs)

    def _decode_directive(
        self, dtype: int, dspec: Optional[int]
    ) -> Optional[PlacementIdentifier]:
        """Device-side decode of the directive fields."""
        if dtype != DTYPE_DATA_PLACEMENT or dspec is None:
            return None
        return PlacementIdentifier.from_dspec(dspec, self._num_ruhs)

    def _pid_for(self, handle: PlacementHandle) -> Optional[PlacementIdentifier]:
        """The PID a write tagged with ``handle`` reaches the device with:
        the DSPEC round-trip, run once per distinct PID."""
        pid = handle.pid
        if pid is None:
            return None
        key = (pid.reclaim_group, pid.ruh_id)
        try:
            return self._pids[key]
        except KeyError:
            decoded = self._decode_directive(*self._encode_directive(handle))
            self._pids[key] = decoded
            return decoded

    # -- async submission (scheduler-enabled devices) -----------------

    def submit_async(
        self,
        op: str,
        lba: int,
        npages: int = 1,
        handle: PlacementHandle = DEFAULT_HANDLE,
        now_ns: int = 0,
        worker: str = "worker-0",
        payload: object = None,
    ) -> int:
        """Submit one tagged command to the worker's queue; returns its
        ticket (requires a scheduler-enabled device).

        The handle → PID → DSPEC translation is identical to
        :meth:`write`; media errors surface in the polled completion
        rather than raising here.  Raises
        :class:`~repro.ssd.errors.QueueFullError` when the worker's
        queue window is full (no state changed, no counters bumped).
        """
        pid = self._pid_for(handle)
        ticket = self.ssd.submit_async(
            op, lba, npages, pid, now_ns, queue=worker, payload=payload
        )
        self.queue(worker).submitted += 1
        nbytes = npages * self._page_size
        if op == "write":
            self.bytes_written += nbytes
            self.writes_by_handle[handle.name] = (
                self.writes_by_handle.get(handle.name, 0) + nbytes
            )
        elif op == "read":
            self.bytes_read += nbytes
        return ticket

    def poll(
        self, worker: str = "worker-0", max_completions: Optional[int] = None
    ):
        """Drain the worker queue's completions, updating its counters.

        Failed completions (``ok=False``) bump the queue's media-error
        tallies the same way the sync path's exceptions do; the caller
        decides whether to resubmit.
        """
        comps = self.ssd.poll(worker, max_completions)
        q = self.queue(worker)
        for comp in comps:
            q.completed += 1
            if not comp.ok:
                if comp.op == "read":
                    q.read_errors += 1
                    self.read_errors += 1
                else:
                    q.write_errors += 1
                    self.write_errors += 1
        return comps

    # -- I/O ----------------------------------------------------------

    def write(
        self,
        lba: int,
        npages: int,
        handle: PlacementHandle = DEFAULT_HANDLE,
        now_ns: int = 0,
        worker: str = "worker-0",
        payload: object = None,
    ) -> int:
        """Submit a tagged write; returns simulated completion time.

        A Write Fault (the FTL exhausted its in-device program retries)
        is resubmitted up to :data:`MAX_WRITE_RETRIES` times with backoff;
        a command that still fails re-raises
        :class:`~repro.faults.errors.ProgramFailError` for the engine
        to drop or requeue the eviction.  A
        :class:`~repro.ssd.errors.PowerLossError` (scripted power cut
        mid-command) is *not* retried — the device is dark.

        ``payload`` rides in the pages' out-of-band metadata (see
        :meth:`repro.ssd.device.SimulatedSSD.write`); cache engines use
        it to persist the sealed-region / bucket self-description that
        warm restart recovers from.
        """
        pid = self._pid_for(handle)  # may refuse: nothing is counted yet
        q = self.queue(worker)
        q.submitted += 1
        backoff = RETRY_BACKOFF_NS
        try:
            for attempt in range(MAX_WRITE_RETRIES + 1):
                try:
                    done = self.ssd.write(
                        lba, npages, pid, now_ns, payload, queue=worker
                    )
                    break
                except ProgramFailError:
                    q.write_errors += 1
                    self.write_errors += 1
                    if attempt == MAX_WRITE_RETRIES:
                        self.retries_exhausted += 1
                        raise
                    q.retries += 1
                    self.write_retries += 1
                    now_ns += backoff
                    backoff *= 2
        finally:
            q.completed += 1
        nbytes = npages * self._page_size
        self.bytes_written += nbytes
        self.writes_by_handle[handle.name] = (
            self.writes_by_handle.get(handle.name, 0) + nbytes
        )
        return done

    def read(
        self,
        lba: int,
        npages: int = 1,
        now_ns: int = 0,
        worker: str = "worker-0",
    ) -> Tuple[bool, int]:
        """Submit a read; returns ``(mapped, completion_ns)``.

        A UECC is retried up to ``max_read_retries`` times with
        exponential backoff (each attempt is a full device read —
        retries cost real media time, which is how read-retry storms
        hurt tail latency on real drives).  A command whose budget runs
        out re-raises :class:`~repro.faults.errors.
        UncorrectableReadError`; cache engines turn that into a miss.
        """
        q = self.queue(worker)
        q.submitted += 1
        backoff = RETRY_BACKOFF_NS
        try:
            for attempt in range(self.max_read_retries + 1):
                try:
                    result = self.ssd.read(lba, npages, now_ns, queue=worker)
                    break
                except UncorrectableReadError:
                    q.read_errors += 1
                    self.read_errors += 1
                    if attempt == self.max_read_retries:
                        self.retries_exhausted += 1
                        raise
                    q.retries += 1
                    self.read_retries += 1
                    now_ns += backoff
                    backoff *= 2
        finally:
            q.completed += 1
        self.bytes_read += npages * self._page_size
        return result

    def submit_batch(
        self,
        entries: Sequence[Tuple],
        now_ns: int = 0,
        worker: str = "worker-0",
    ) -> List[BatchOutcome]:
        """Submit many tagged commands in one call (one queue window).

        Each entry is ``(op, lba, npages[, handle[, payload]])`` with
        ``op`` one of ``"write"``/``"read"``/``"trim"``; the handle
        defaults to :data:`~repro.core.placement.DEFAULT_HANDLE`.  All
        commands are submitted at ``now_ns`` and the device busy clock
        serializes their media work in order, exactly as a queue-
        depth-1 caller threading completion times would observe — the
        saving is per-command Python overhead (the batched FTL extent
        path does the heavy lifting below).

        Unlike :meth:`write`/:meth:`read`, a media error that survives
        the per-command retry budget does *not* abort the batch: like a
        real completion queue, each command gets its own
        :class:`~repro.ssd.batch.BatchOutcome` and later entries still
        run.  Power loss still propagates — the whole device is dark.
        """
        outcomes: List[BatchOutcome] = []
        for entry in entries:
            op, lba, npages = entry[0], entry[1], entry[2]
            handle = entry[3] if len(entry) > 3 and entry[3] is not None else DEFAULT_HANDLE
            payload = entry[4] if len(entry) > 4 else None
            if op == OP_WRITE:
                cmd = BatchCommand(op, lba, npages, payload=payload)
                try:
                    value = self.write(
                        lba, npages, handle, now_ns, worker, payload
                    )
                except MediaError as exc:
                    outcomes.append(BatchOutcome(cmd, False, error=exc))
                    continue
            elif op == OP_READ:
                cmd = BatchCommand(op, lba, npages)
                try:
                    value = self.read(lba, npages, now_ns, worker)
                except MediaError as exc:
                    outcomes.append(BatchOutcome(cmd, False, error=exc))
                    continue
            elif op == OP_TRIM:
                cmd = BatchCommand(op, lba, npages)
                value = self.ssd.deallocate(lba, npages, now_ns, queue=worker)
            else:
                raise ValueError(f"unknown batch op {op!r}")
            outcomes.append(BatchOutcome(cmd, True, value=value))
        return outcomes

    def deallocate(self, lba: int, npages: int = 1) -> int:
        """TRIM a range through the device layer.

        Names no queue, so an attached scheduler does not time it —
        unlike the trims of :meth:`submit_batch`, which it does.
        """
        return self.ssd.deallocate(lba, npages)

    def read_payload(self, lba: int, npages: int = 1):
        """Per-page payload objects for a range (no I/O cost).

        Recovery-path accessor: what the media durably holds for these
        LBAs, with ``None`` for unmapped or torn pages.  Works while
        the device is powered off.
        """
        return self.ssd.read_payload(lba, npages)

    # -- telemetry ----------------------------------------------------

    def error_counters(self) -> Dict[str, object]:
        """Media-error and retry tallies, device-wide plus per queue."""
        return {
            "read_errors": self.read_errors,
            "write_errors": self.write_errors,
            "read_retries": self.read_retries,
            "write_retries": self.write_retries,
            "retries_exhausted": self.retries_exhausted,
            "per_queue": {
                name: {
                    "read_errors": q.read_errors,
                    "write_errors": q.write_errors,
                    "retries": q.retries,
                }
                for name, q in self._queues.items()
            },
        }
