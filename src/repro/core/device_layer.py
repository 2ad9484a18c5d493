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

The paper uses one io_uring queue pair per worker thread; here a
command's ``worker`` names the scheduler queue that times it (see
:mod:`repro.ssd.sched`).  Media-error, retry and byte counters are
device-wide.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..faults.errors import MediaError, ProgramFailError, UncorrectableReadError
from ..fdp.ruh import PlacementIdentifier
from ..ssd.batch import OP_READ, OP_TRIM, OP_WRITE, BatchCommand, BatchOutcome
from ..ssd.device import SimulatedSSD
from .placement import DEFAULT_HANDLE, PlacementHandle, PlacementHandleAllocator

__all__ = ["FdpAwareDevice"]

# NVMe Directive Type for data placement (TP4146).
DTYPE_DATA_PLACEMENT = 0x2
DTYPE_NONE = 0x0

# A Write Fault is resubmitted once: the FTL's in-device program retry
# has already absorbed most faults before one reaches the host.
MAX_WRITE_RETRIES = 1
# Host-side delay before the first resubmission; doubles per attempt.
RETRY_BACKOFF_NS = 100_000


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
        self.bytes_written = 0
        self.bytes_read = 0
        self.writes_by_handle: Dict[str, int] = {}
        # Device-wide media-error and retry accounting, surfaced by the
        # cache metrics.
        self.read_errors = 0
        self.write_errors = 0
        self.read_retries = 0
        self.write_retries = 0
        self.retries_exhausted = 0

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
        backoff = RETRY_BACKOFF_NS
        for attempt in range(MAX_WRITE_RETRIES + 1):
            try:
                done = self.ssd.write(
                    lba, npages, pid, now_ns, payload, queue=worker
                )
                break
            except ProgramFailError:
                self.write_errors += 1
                if attempt == MAX_WRITE_RETRIES:
                    self.retries_exhausted += 1
                    raise
                self.write_retries += 1
                now_ns += backoff
                backoff *= 2
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
        backoff = RETRY_BACKOFF_NS
        for attempt in range(self.max_read_retries + 1):
            try:
                result = self.ssd.read(lba, npages, now_ns, queue=worker)
                break
            except UncorrectableReadError:
                self.read_errors += 1
                if attempt == self.max_read_retries:
                    self.retries_exhausted += 1
                    raise
                self.read_retries += 1
                now_ns += backoff
                backoff *= 2
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
