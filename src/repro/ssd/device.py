"""`SimulatedSSD` — the NVMe-device facade over the FTL.

Presents the surface the rest of the system (and the experiments) talk
to, in the same shape the paper's stack uses:

* writes that may carry an FDP placement identifier (the placement
  directive of TP4146);
* reads and deallocate (TRIM);
* log pages: FDP statistics (host vs. media bytes → DLWA) and the FDP
  event log (media-relocated events → GC activity, Figure 10b);
* device management: format (the paper TRIMs the whole device before
  every experiment) and FDP enable/disable (the paper toggles FDP with
  nvme-cli to produce its Non-FDP baseline).

The device keeps one namespace covering the full logical range; the
multi-tenant experiment (Figure 11) partitions the LBA space at the
host, which is how the paper runs it as well.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..faults.failslow import FailSlowConfig, FailSlowModel
from ..faults.latent import LatentErrorConfig, LatentErrorModel
from ..faults.model import FaultConfig, FaultModel, HealthLogPage
from ..fdp.config import FdpConfiguration, default_configuration
from ..fdp.events import FdpEventLog
from ..fdp.logpage import FdpStatisticsLogPage
from ..fdp.ruh import PlacementIdentifier
from .batch import OP_READ, OP_TRIM, OP_WRITE, BatchCommand
from .energy import EnergyCosts
from .errors import MediaError
from .ftl import Ftl
from .geometry import Geometry
from .sched import IoCompletion, MultiQueueScheduler, SchedConfig
from .scrub import PatrolScrubber, ScrubConfig, ScrubStatus
from .stats import DeviceStats

__all__ = ["SimulatedSSD"]


class SimulatedSSD:
    """A simulated FDP-capable NVMe SSD.

    Parameters
    ----------
    geometry:
        Physical layout.
    fdp:
        ``True`` enables FDP with the paper's default configuration
        (8 initially isolated RUHs, 1 reclaim group, superblock-sized
        RUs); pass an explicit :class:`FdpConfiguration` for other
        shapes; ``False``/``None`` yields a conventional SSD.
    faults:
        Failure injection.  ``None`` (default) keeps the device
        perfectly reliable — the I/O path is then bit-identical to a
        build without the fault subsystem.  Pass a
        :class:`~repro.faults.model.FaultConfig` for a seed-driven
        model.  Injected failures surface through
        :meth:`get_health_log`, the FDP event log (``MEDIA_ERROR``
        entries), and the media-error exceptions documented in
        :mod:`repro.faults.errors`.
    latent:
        Latent-error modeling (read disturb, retention aging, silent
        corruption) plus end-to-end CRC protection, from a
        :class:`~repro.faults.latent.LatentErrorConfig`.  ``None``
        disables both the error model and CRC stamping.
    scrub:
        Background patrol scrubber.  ``True`` attaches one with
        default policy, or pass a
        :class:`~repro.ssd.scrub.ScrubConfig`.  The scrubber walks
        CLOSED superblocks on the simulated clock, verifies page CRCs,
        refreshes pages whose latent error level exceeds the refresh
        threshold, and retires repeatedly failing blocks.
    sched / failslow:
        ``True`` or a :class:`~repro.ssd.sched.SchedConfig` attaches
        the multi-queue scheduler; a
        :class:`~repro.faults.failslow.FailSlowConfig` (which requires
        ``sched``) its fail-slow timing overlay.

    Every model is built from its config afresh by :meth:`format`, so
    formatted runs replay identically.  NAND timings and energy costs
    are the :class:`~repro.ssd.latency.NandTimings` and
    :class:`~repro.ssd.energy.EnergyCosts` defaults.
    """

    #: What :meth:`_new_ftl` builds, so ``format()`` keeps it; the
    #: differential tier substitutes its per-page reference FTL here.
    ftl_class = Ftl

    def __init__(
        self,
        geometry: Geometry,
        fdp: "bool | FdpConfiguration | None" = False,
        *,
        gc_reserve_superblocks: Optional[int] = None,
        gc_victim_sample: Optional[int] = None,
        wear_level_threshold: Optional[int] = None,
        faults: Optional[FaultConfig] = None,
        checkpoint_interval_pages: Optional[int] = None,
        journal_flush_interval: Optional[int] = None,
        power_seed: Optional[int] = None,
        latent: Optional[LatentErrorConfig] = None,
        scrub: "ScrubConfig | bool | None" = None,
        sched: "SchedConfig | bool | None" = None,
        failslow: Optional[FailSlowConfig] = None,
    ) -> None:
        self.geometry = geometry
        if fdp is True:
            config: Optional[FdpConfiguration] = default_configuration(
                geometry.superblock_bytes
            )
        elif isinstance(fdp, FdpConfiguration):
            config = fdp
        else:
            config = None
        self.fdp_config = config
        self._gc_reserve = gc_reserve_superblocks
        self._gc_victim_sample = gc_victim_sample
        self._wear_level_threshold = wear_level_threshold
        self._fault_spec = faults
        self._checkpoint_interval = checkpoint_interval_pages
        self._journal_flush_interval = journal_flush_interval
        self._power_seed = power_seed
        self._latent_spec = latent
        self._scrub_spec = scrub
        self._sched_spec = sched
        if failslow is not None and (sched is None or sched is False):
            raise ValueError(
                "failslow is a scheduler timing overlay; pass sched=True "
                "(or a SchedConfig) to attach one"
            )
        self._failslow_spec = failslow
        self.ftl = self._new_ftl()

    def _new_scrubber(self) -> Optional[PatrolScrubber]:
        spec = self._scrub_spec
        if spec is None or spec is False:
            return None
        return PatrolScrubber(None if spec is True else spec)

    def _new_sched(self) -> Optional[MultiQueueScheduler]:
        spec = self._sched_spec
        if spec is None or spec is False:
            return None
        failslow = self._failslow_spec
        return MultiQueueScheduler(
            spec if isinstance(spec, SchedConfig) else None,
            geometry=self.geometry,
            failslow=None if failslow is None else FailSlowModel(failslow),
        )

    def _new_ftl(self) -> Ftl:
        extra = {}
        if self._checkpoint_interval is not None:
            extra["checkpoint_interval_pages"] = self._checkpoint_interval
        if self._journal_flush_interval is not None:
            extra["journal_flush_interval"] = self._journal_flush_interval
        if self._power_seed is not None:
            extra["power_seed"] = self._power_seed
        faults, latent = self._fault_spec, self._latent_spec
        return self.ftl_class(
            self.geometry,
            self.fdp_config,
            gc_reserve_superblocks=self._gc_reserve,
            gc_victim_sample=self._gc_victim_sample,
            wear_level_threshold=self._wear_level_threshold,
            faults=None if faults is None else FaultModel(faults),
            latent=None if latent is None else LatentErrorModel(latent),
            scrub=self._new_scrubber(),
            sched=self._new_sched(),
            **extra,
        )

    # ------------------------------------------------------------------
    # identity / capacity
    # ------------------------------------------------------------------

    @property
    def fdp_enabled(self) -> bool:
        """Whether the controller accepts placement directives."""
        return self.fdp_config is not None

    @property
    def page_size(self) -> int:
        return self.geometry.page_size

    @property
    def capacity_pages(self) -> int:
        """Advertised (logical) capacity in pages."""
        return self.geometry.logical_pages

    @property
    def capacity_bytes(self) -> int:
        """Advertised (logical) capacity in bytes."""
        return self.geometry.logical_bytes

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------

    def write(
        self,
        lba: int,
        npages: int = 1,
        pid: Optional[PlacementIdentifier] = None,
        now_ns: int = 0,
        payload: object = None,
        *,
        queue: str = "host",
    ) -> int:
        """Write ``npages`` from ``lba`` with an optional placement id.

        Returns the simulated completion time in nanoseconds — with a
        scheduler attached, the one it assigns on ``queue`` (a full
        queue raises :class:`~repro.ssd.errors.QueueFullError` before
        any state changes).  With fault injection enabled, may raise
        :class:`~repro.faults.errors.ProgramFailError` when a run of
        consecutive page programs fails, or
        :class:`~repro.ssd.errors.PowerLossError` when a scripted
        power cut tears the command mid-write.

        ``payload`` is an opaque per-command object stored in the
        pages' out-of-band metadata and surfaced again by
        :meth:`read_payload`; callers use it to verify what content
        actually survived a power cut.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        ftl = self.ftl
        sched = ftl.sched
        if sched is None:
            return ftl.write_range(lba, npages, pid, now_ns, payload)
        q = sched.admit(queue)
        # A written command occupies its newly programmed location's
        # channel, a failed one the channel its data lived on before.
        ppn = ftl._l2p[lba] if 0 <= lba < ftl._logical_pages else -1
        try:
            ftl.write_range(lba, npages, pid, now_ns, payload)
        except MediaError:
            where = ppn // ftl._pps if ppn >= 0 else lba
            sched.issue(q, "write", npages, sched.channel_for(where), now_ns)
            raise
        channel = sched.channel_for(ftl._l2p[lba] // ftl._pps)
        return sched.issue(q, "write", npages, channel, now_ns)

    def write_arrays(
        self,
        lbas: Sequence[int],
        npages: Sequence[int],
        pid: Optional[PlacementIdentifier] = None,
        now_ns: int = 0,
        payloads: Optional[Sequence[object]] = None,
    ) -> List[int]:
        """Write a whole command array in one call.

        ``lbas[i]``/``npages[i]`` (and optionally ``payloads[i]``)
        describe command *i*.  Commands run closed-loop — each issued at
        the previous one's completion, starting at ``now_ns`` — and the
        per-command completion times come back as a list, so

        >>> dones = device.write_arrays(lbas, npages, now_ns=t0)

        is threading ``t = device.write(lbas[i], npages[i], pid, t)``
        per command, exceptions included: it is that loop
        (:meth:`repro.ssd.ftl.Ftl.write_arrays`), kept as a convenience
        for callers that hold their commands as columns.
        """
        if len(lbas) != len(npages):
            raise ValueError("lbas and npages must have equal length")
        if payloads is not None and len(payloads) != len(lbas):
            raise ValueError("payloads must match lbas in length")
        return self.ftl.write_arrays(lbas, npages, pid, now_ns, payloads)

    def read(
        self, lba: int, npages: int = 1, now_ns: int = 0, *, queue: str = "host"
    ) -> Tuple[bool, int]:
        """Read ``npages`` from ``lba``.

        Returns ``(all_mapped, completion_ns)``, timed on ``queue`` as
        :meth:`write` is.  With fault injection enabled, may raise
        :class:`~repro.faults.errors.UncorrectableReadError` (UECC).
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        ftl = self.ftl
        sched = ftl.sched
        if sched is None:
            return ftl.read_range(lba, npages, now_ns)
        q = sched.admit(queue)
        ppn = ftl._l2p[lba] if 0 <= lba < ftl._logical_pages else -1
        channel = sched.channel_for(ppn // ftl._pps if ppn >= 0 else lba)
        try:
            mapped, _ = ftl.read_range(lba, npages, now_ns)
        except MediaError:
            sched.issue(q, "read", npages, channel, now_ns)
            raise
        return mapped, sched.issue(q, "read", npages, channel, now_ns)

    def deallocate(
        self,
        lba: int,
        npages: int = 1,
        now_ns: int = 0,
        *,
        queue: Optional[str] = None,
    ) -> int:
        """TRIM a range; returns the number of pages invalidated.

        Only a TRIM that names a ``queue`` is timed by an attached
        scheduler, on the channel its data lived on.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        ftl = self.ftl
        sched = ftl.sched
        if sched is None or queue is None:
            return ftl.deallocate(lba, npages)
        q = sched.admit(queue)
        ppn = ftl._l2p[lba] if 0 <= lba < ftl._logical_pages else -1
        channel = sched.channel_for(ppn // ftl._pps if ppn >= 0 else lba)
        pages = ftl.deallocate(lba, npages)
        sched.issue(q, "trim", npages, channel, now_ns)
        return pages

    def submit_batch(
        self,
        commands: Iterable[Union[BatchCommand, Sequence]],
        now_ns: int = 0,
    ) -> List[object]:
        """Submit an ordered batch of commands in one call.

        Each entry is a :class:`~repro.ssd.batch.BatchCommand` (or an
        ``(op, lba[, npages, pid, payload])`` tuple) executed exactly
        as the standalone :meth:`write`/:meth:`read`/:meth:`deallocate`
        call would be at ``now_ns`` on a device without a scheduler
        (an attached one does not time them) — the busy-clock latency model
        serializes the media work, so command *k* starts when *k-1*'s
        media finishes, just as a queue-depth-1 caller threading
        completion times would observe.  Returns one result per
        command (write → completion ns, read → ``(mapped, ns)``, trim
        → pages invalidated).

        Media errors propagate as the standalone call would raise
        them; commands ordered before the failing one have executed.
        For per-command error capture use the device layer's
        :meth:`~repro.core.device_layer.FdpAwareDevice.submit_batch`.
        """
        results: List[object] = []
        for entry in commands:
            cmd = BatchCommand.coerce(entry)
            if cmd.op == OP_WRITE:
                results.append(
                    self.ftl.write_range(
                        cmd.lba, cmd.npages, cmd.pid, now_ns, cmd.payload
                    )
                )
            elif cmd.op == OP_READ:
                results.append(
                    self.ftl.read_range(cmd.lba, cmd.npages, now_ns)
                )
            else:
                assert cmd.op == OP_TRIM  # coerce() already validated
                results.append(self.ftl.deallocate(cmd.lba, cmd.npages))
        return results

    # ------------------------------------------------------------------
    # asynchronous submission (multi-queue scheduler)
    # ------------------------------------------------------------------

    @property
    def scheduler(self) -> Optional[MultiQueueScheduler]:
        """The attached multi-queue scheduler, or ``None``.

        Attach one with ``sched=True`` (defaults) or a
        :class:`~repro.ssd.sched.SchedConfig`; :meth:`format` rebuilds
        it along with the FTL.  The scheduler is a pure timing overlay:
        it never changes what a command writes, only when it completes.
        """
        return self.ftl.sched

    @property
    def failslow(self) -> Optional[FailSlowModel]:
        """The scheduler's fail-slow timing overlay, or ``None``.

        Attach one with ``failslow=FailSlowConfig(...)`` (requires
        ``sched``); :meth:`format` rebuilds it from the config.  Like the scheduler
        it decorates, it only stretches completion times — no simulated state depends on it.
        """
        sched = self.ftl.sched
        return None if sched is None else sched.failslow

    def submit_async(
        self,
        op: str,
        lba: int,
        npages: int = 1,
        pid: Optional[PlacementIdentifier] = None,
        now_ns: int = 0,
        *,
        queue: str = "host",
        payload: object = None,
    ) -> int:
        """Submit one command to a named queue; returns its ticket.

        The FTL state mutation executes synchronously, in submission
        order, exactly as the matching :meth:`write` / :meth:`read` /
        :meth:`deallocate` call would — which is what keeps
        scheduler-on runs bit-identical to scheduler-off for all
        non-timing state.  The multi-queue scheduler times the command
        as it is submitted, exactly as it times a sync one; only the
        completion is deferred: it surfaces via :meth:`poll`.

        Media errors are captured into the completion
        (``IoCompletion.ok is False`` with ``error`` set, like an NVMe
        status code) — their state side effects (retirement, poisoning)
        have already happened.  :class:`~repro.ssd.errors.PowerLossError`
        propagates: the device is dark and the command never completes.
        Raises :class:`~repro.ssd.errors.QueueFullError` — before any
        state changes — when the queue's outstanding window is full.
        """
        sched = self.ftl.sched
        if sched is None:
            raise ValueError(
                "submit_async requires a scheduler; construct the device "
                "with sched=True or a SchedConfig"
            )
        if npages <= 0:
            raise ValueError("npages must be positive")
        if op not in ("write", "read", "trim"):
            raise ValueError(f"op must be 'write', 'read' or 'trim', got {op!r}")
        # Backpressure check BEFORE state execution: a rejected
        # command must leave the device untouched.
        sched.admit(queue)
        # Trims occupy the channel where the data lived before the
        # mapping is destroyed (channels as :meth:`write` finds them).
        ftl = self.ftl
        ppn = ftl._l2p[lba] if 0 <= lba < ftl._logical_pages else -1
        channel = sched.channel_for(ppn // ftl._pps if ppn >= 0 else lba)
        result: object = None
        error: Optional[MediaError] = None
        try:
            if op == "write":
                result = self.ftl.write_range(lba, npages, pid, now_ns, payload)
                channel = sched.channel_for(ftl._l2p[lba] // ftl._pps)
            elif op == "read":
                result = self.ftl.read_range(lba, npages, now_ns)
            else:
                result = self.ftl.deallocate(lba, npages)
        except MediaError as exc:
            error = exc
        return sched.submit(
            queue,
            op,
            lba=lba,
            npages=npages,
            channel=channel,
            now_ns=now_ns,
            result=result,
            error=error,
        )

    def poll(
        self, queue: str = "host", max_completions: Optional[int] = None
    ) -> List[IoCompletion]:
        """Drain completions from a queue (all of them by default).

        Completions arrive in completion-time order; each carries the
        latency the scheduler recorded when the command was submitted.
        """
        sched = self.ftl.sched
        if sched is None:
            raise ValueError(
                "poll requires a scheduler; construct the device with "
                "sched=True or a SchedConfig"
            )
        return sched.poll(queue, max_completions)

    def format(self) -> None:
        """Return the device to a clean state (whole-device TRIM +
        counter reset), as the paper does before every experiment."""
        self.ftl = self._new_ftl()

    # ------------------------------------------------------------------
    # power loss and recovery
    # ------------------------------------------------------------------

    @property
    def powered_off(self) -> bool:
        """Whether the device is dark after a :meth:`power_cut`."""
        return self.ftl.powered_off

    def power_cut(self, now_ns: Optional[int] = None):
        """Cut power at ``now_ns`` (default: once the device is idle).

        Volatile FTL state (L2P map, write points, unflushed journal
        entries) is dropped; in-flight writes not yet acknowledged by
        ``now_ns`` are torn at a seed-driven point.  The device then
        rejects I/O with
        :class:`~repro.ssd.errors.DeviceOfflineError` until
        :meth:`recover` runs.  Returns a
        :class:`~repro.ssd.recovery.PowerCutReport`.
        """
        return self.ftl.power_cut(now_ns)

    def recover(self, now_ns: Optional[int] = None):
        """Power-on recovery: rebuild the L2P map and resume service.

        Replays the newest durable checkpoint plus the flushed mapping
        journal, then scans out-of-band metadata for writes sequenced
        after the journal horizon, discarding torn pages.  Returns a
        :class:`~repro.ssd.recovery.RecoveryReport`.
        """
        return self.ftl.recover(now_ns)

    def is_mapped(self, lba: int) -> bool:
        """Whether ``lba`` currently has a valid mapping (no I/O cost)."""
        return self.ftl.is_mapped(lba)

    def read_payload(self, lba: int, npages: int = 1):
        """Per-page payload objects for a logical range (no I/O cost).

        Returns a list of ``npages`` entries; unmapped or torn pages
        yield ``None``.  Works while powered off — it is the test/
        verification window into what the media actually holds.
        """
        if npages <= 0:
            raise ValueError("npages must be positive")
        return self.ftl.read_payload(lba, npages)

    # ------------------------------------------------------------------
    # logs and telemetry (the nvme get-log surface)
    # ------------------------------------------------------------------

    @property
    def stats(self) -> DeviceStats:
        return self.ftl.stats

    @property
    def events(self) -> FdpEventLog:
        return self.ftl.events

    @property
    def dlwa(self) -> float:
        """Cumulative device-level write amplification."""
        return self.ftl.stats.dlwa

    def snapshot(self) -> DeviceStats:
        """Copy the counters for interval-DLWA computation."""
        return self.ftl.stats.snapshot()

    def get_log_page(self) -> FdpStatisticsLogPage:
        """FDP statistics log page built from live counters."""
        page = self.geometry.page_size
        s = self.ftl.stats
        return FdpStatisticsLogPage(
            host_bytes_with_metadata=s.host_pages_written * page,
            media_bytes_written=s.nand_pages_written * page,
            media_bytes_read_for_gc=s.gc_pages_read * page,
        )

    @property
    def faults(self) -> Optional[FaultModel]:
        """The live fault injector, or ``None`` on a reliable device."""
        return self.ftl.faults

    @property
    def latent(self) -> Optional[LatentErrorModel]:
        """The live latent-error model, or ``None`` when disabled."""
        return self.ftl.latent

    def scrub_status(self) -> Optional[ScrubStatus]:
        """Patrol-scrub progress snapshot, or ``None`` when no scrubber
        is attached (the ``nvme scrub-status`` surface)."""
        if self.ftl.scrubber is None:
            return None
        return self.ftl.scrubber.status(self.ftl.stats)

    def run_scrub_pass(self, now_ns: Optional[int] = None) -> ScrubStatus:
        """Run one complete patrol pass over the device synchronously.

        Scans every CLOSED superblock and the written prefix of OPEN
        write points (verify-only), charging scan/relocation latency on
        the busy clock.  Raises :class:`ValueError` when no scrubber is
        attached.
        """
        return self.ftl.run_scrub_pass(now_ns)

    def get_health_log(
        self, rated_pe_cycles: Optional[int] = None
    ) -> HealthLogPage:
        """SMART-like health log page (``nvme smart-log`` shape).

        Reports cumulative media errors by class, permanently retired
        superblocks, the spare (overprovisioning) capacity those
        retirements have consumed, crash-consistency counters (power
        cuts, recoveries, torn pages), and endurance percent-used
        against ``rated_pe_cycles`` — which defaults to the geometry's
        :attr:`~repro.ssd.geometry.Geometry.rated_pe_cycles` endurance
        rating rather than a hard-coded constant.  All zeros/fresh on a
        fault-free device.
        """
        if rated_pe_cycles is None:
            rated_pe_cycles = self.geometry.rated_pe_cycles
        if rated_pe_cycles <= 0:
            raise ValueError("rated_pe_cycles must be positive")
        s = self.ftl.stats
        wear = self.ftl.wear_stats()
        geometry = self.geometry
        pps = geometry.pages_per_superblock
        op_pages = geometry.total_pages - geometry.logical_pages
        retired_pages = s.superblocks_retired * pps
        if op_pages > 0:
            spare = max(0.0, 100.0 * (op_pages - retired_pages) / op_pages)
        else:
            spare = 0.0 if retired_pages else 100.0
        return HealthLogPage(
            media_errors=s.media_errors,
            read_uecc_errors=s.read_uecc_errors,
            program_failures=s.program_failures,
            erase_failures=s.erase_failures,
            retired_superblocks=s.superblocks_retired,
            latency_spikes=s.latency_spikes,
            available_spare_pct=spare,
            percent_used=100.0 * wear.max_erases / rated_pe_cycles,
            rated_pe_cycles=rated_pe_cycles,
            power_cuts=s.power_cuts,
            recoveries=s.recoveries,
            torn_pages_discarded=s.torn_pages_discarded,
            reads_corrected=s.reads_corrected,
            soft_decode_retries=s.soft_decode_retries,
            crc_detected_corruptions=s.crc_detected_corruptions,
            scrub_passes=s.scrub_passes,
            scrub_pages_scanned=s.scrub_pages_scanned,
            scrub_pages_relocated=s.scrub_pages_relocated,
            scrub_blocks_retired=s.scrub_blocks_retired,
        )

    def energy_kwh(self, elapsed_ns: Optional[int] = None) -> float:
        """Total operational energy so far, in kWh.

        ``elapsed_ns`` defaults to the device's busy horizon, i.e. a
        run with no idle time; pass the simulation's wall clock to
        include the idle-power floor.
        """
        busy = self.ftl.latency.busy_ns_total
        total = elapsed_ns if elapsed_ns is not None else busy
        joules = EnergyCosts().joules(
            self.ftl.stats, self.geometry.blocks_per_superblock, total, busy
        )
        return joules / 3.6e6

    def wear_stats(self):
        """Erase-count distribution across superblocks."""
        return self.ftl.wear_stats()

    def check_invariants(self) -> None:
        """Delegate to the FTL's consistency checker (test hook)."""
        self.ftl.check_invariants()
