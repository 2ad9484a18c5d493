"""Run metrics: latency quantiles, interval DLWA series, run results.

The driver collects exactly the quantities the paper reports per
experiment: throughput, overall/DRAM/NVM hit ratios, ALWA, cumulative
and interval DLWA (the latter is what Figures 5/7/8/11 plot), p99
read/write latency, GC activity, and operational energy.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "LatencyReservoir",
    "IntervalPoint",
    "RunResult",
    "CrashSoakResult",
    "IntegritySoakResult",
    "LatencyArm",
    "LatencySoakResult",
    "FleetWindow",
    "FleetSoakResult",
    "FailSlowWindow",
    "FailSlowArm",
    "FailSlowSoakResult",
    "AblationCell",
    "AblationResult",
]


class LatencyReservoir:
    """Bounded latency sample that decimates itself when full.

    Keeps at most ``capacity`` samples; on overflow every second sample
    is dropped and the acceptance stride doubles, so the reservoir
    stays a uniform subsample of the stream — adequate for p50-p99
    estimation over millions of ops without unbounded memory.
    """

    def __init__(self, capacity: int = 131072) -> None:
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.capacity = capacity
        self._samples: List[int] = []
        self._stride = 1
        self._seen = 0

    def add(self, latency_ns: int) -> None:
        self.extend((latency_ns,))

    def extend(self, latencies: Sequence[int]) -> None:
        """Offer a window of the stream, oldest first — the same
        reservoir as offering its samples one by one, at one slice per
        stride in force instead of a call per sample."""
        pos, end = 0, len(latencies)
        while pos < end:
            stride = self._stride
            # The stream's k-th sample (from 1) is kept when k % stride == 0.
            first = pos + (-self._seen - 1) % stride
            room = self.capacity - len(self._samples)
            stop = first + (room - 1) * stride + 1  # past the one that fills it
            self._samples.extend(latencies[first:stop:stride])
            if stop > end:
                self._seen += end - pos
                return
            self._seen += stop - pos
            pos = stop
            self._samples = self._samples[::2]
            self._stride *= 2

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count_seen(self) -> int:
        return self._seen

    def percentile(self, p: float) -> float:
        """Latency percentile in nanoseconds (0 when empty)."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.array(self._samples), p))

    def p99_us(self) -> float:
        return self.percentile(99.0) / 1000.0

    def p50_us(self) -> float:
        return self.percentile(50.0) / 1000.0


@dataclasses.dataclass(frozen=True)
class IntervalPoint:
    """One DLWA poll (the paper polls every 10 minutes via nvme-cli)."""

    ops: int
    host_gib_written: float
    interval_dlwa: float
    cumulative_dlwa: float


@dataclasses.dataclass
class RunResult:
    """Everything one experiment arm produced."""

    name: str
    fdp: bool
    ops: int
    sim_seconds: float
    # cache metrics
    hit_ratio: float
    dram_hit_ratio: float
    nvm_hit_ratio: float
    alwa: float
    # device metrics
    dlwa: float
    steady_dlwa: float
    interval_series: List[IntervalPoint]
    gc_relocation_events: int
    gc_relocated_pages: int
    gc_victims: int
    host_pages_written: int
    nand_pages_written: int
    energy_kwh: float
    # latency metrics (microseconds)
    p50_read_us: float
    p99_read_us: float
    p50_write_us: float
    p99_write_us: float
    # fault/degradation metrics (all zero on a fault-free device;
    # appended with defaults so positional constructions stay valid)
    media_errors: int = 0
    read_errors: int = 0
    write_errors: int = 0
    write_drops: int = 0
    io_retries: int = 0
    retired_superblocks: int = 0
    available_spare_pct: float = 100.0
    # admission metrics (defaulted for positional constructions; the
    # policy-vs-placement ablation reads these off sweep results)
    flash_admits: int = 0
    flash_rejects: int = 0
    flash_admit_ratio: float = 1.0

    @property
    def throughput_kops(self) -> float:
        """Simulated throughput in thousands of ops per second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.ops / self.sim_seconds / 1000.0

    @property
    def kgets_per_sec(self) -> float:
        """Alias used by Table 2 (KGET/s); ops-level throughput."""
        return self.throughput_kops

    def summary_row(self) -> str:
        """One printable row, paper-style."""
        return (
            f"{self.name:<28} fdp={str(self.fdp):<5} "
            f"DLWA={self.dlwa:5.2f} (steady {self.steady_dlwa:5.2f}) "
            f"hit={self.hit_ratio * 100:5.1f}% nvm_hit={self.nvm_hit_ratio * 100:5.1f}% "
            f"ALWA={self.alwa:4.2f} kops={self.throughput_kops:7.1f} "
            f"p99r={self.p99_read_us:7.0f}us p99w={self.p99_write_us:7.0f}us "
            f"GCreloc={self.gc_relocation_events}"
        )

    def faults_row(self) -> str:
        """One printable row of fault/degradation counters."""
        return (
            f"{self.name:<28} media_err={self.media_errors:<6} "
            f"read_err={self.read_errors:<5} write_err={self.write_errors:<5} "
            f"drops={self.write_drops:<5} retries={self.io_retries:<5} "
            f"retired_sb={self.retired_superblocks:<3} "
            f"spare={self.available_spare_pct:5.1f}%"
        )


@dataclasses.dataclass(frozen=True)
class CrashSoakResult:
    """Outcome of one :func:`~repro.bench.runner.run_crash_soak` run.

    The soak loops write → power-cut → recover → verify cycles and
    reconciles the device's recovered L2P map against a host-side
    shadow reference after every cut.  ``verified_cycles`` equals
    ``cycles`` on success (the soak raises on the first divergence, so
    a returned result *is* the pass certificate).
    """

    cycles: int
    verified_cycles: int
    power_cuts: int
    scripted_cuts: int
    inflight_cuts: int
    quiescent_cuts: int
    commands_issued: int
    pages_written: int
    pages_verified: int
    pages_trimmed: int
    torn_writes: int
    torn_pages_discarded: int
    mappings_recovered_total: int
    journal_entries_replayed_total: int
    final_mapped_pages: int
    final_dlwa: float

    def summary_row(self) -> str:
        """One printable row, chaos-bench style."""
        return (
            f"crash-soak cycles={self.cycles} cuts={self.power_cuts} "
            f"(scripted={self.scripted_cuts} inflight={self.inflight_cuts} "
            f"quiescent={self.quiescent_cuts}) "
            f"pages={self.pages_written} torn={self.torn_pages_discarded} "
            f"recovered={self.mappings_recovered_total} "
            f"DLWA={self.final_dlwa:5.2f}"
        )


@dataclasses.dataclass(frozen=True)
class IntegritySoakResult:
    """Outcome of one :func:`~repro.bench.runner.run_integrity_soak` run.

    The soak drives a device with the latent-error model enabled and
    reconciles every logical page against a host-side shadow map at the
    end.  Pages fall into three buckets: *intact* (device content
    matches the shadow), *lost-detected* (the device knows the page is
    gone — CRC verification poisoned it, or it reads back unmapped),
    and *undetected* (the device serves content that differs from what
    the host wrote — the silent-corruption failure mode the end-to-end
    CRC + patrol scrub are there to eliminate).
    """

    ops: int
    pages_written: int
    pages_read: int
    scrub_enabled: bool
    # corruption accounting (shadow-map reconciliation)
    corruptions_injected: int
    detected_corruptions: int
    undetected_corruptions: int
    pages_intact: int
    pages_lost_detected: int
    # read-retry ladder counters
    reads_corrected: int
    soft_decode_retries: int
    read_uecc_errors: int
    # patrol scrub counters
    scrub_passes: int
    scrub_pages_scanned: int
    scrub_pages_relocated: int
    scrub_blocks_retired: int
    # DLWA accounting (scrub relocations must show up here)
    host_pages_written: int
    gc_pages_migrated: int
    nand_pages_written: int
    dlwa: float

    def summary_row(self) -> str:
        """One printable row, chaos-bench style."""
        return (
            f"integrity-soak scrub={'on ' if self.scrub_enabled else 'off'} "
            f"ops={self.ops} injected={self.corruptions_injected} "
            f"detected={self.detected_corruptions} "
            f"undetected={self.undetected_corruptions} "
            f"corrected={self.reads_corrected} "
            f"relocated={self.scrub_pages_relocated} "
            f"retired={self.scrub_blocks_retired} "
            f"DLWA={self.dlwa:5.2f}"
        )


@dataclasses.dataclass(frozen=True)
class LatencyArm:
    """One arm of the latency soak (FDP on or off).

    All latency figures are integer nanoseconds taken from the
    multi-queue scheduler's log-bucketed histograms (bucket upper
    bounds — deterministic, so golden fixtures compare exactly).
    ``per_queue`` maps queue name → op → ``{count, p50, p99, p999}``;
    the top-level read/write figures merge every queue.
    """

    name: str
    fdp: bool
    ops: int
    read_count: int
    read_p50_ns: int
    read_p99_ns: int
    read_p999_ns: int
    write_count: int
    write_p50_ns: int
    write_p99_ns: int
    write_p999_ns: int
    per_queue: Dict[str, Dict[str, Dict[str, int]]]
    gc_blocked_commands: int
    host_wait_ns: int
    background_ns: Dict[str, int]
    dlwa: float

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def summary_row(self) -> str:
        return (
            f"{self.name:<24} fdp={str(self.fdp):<5} "
            f"p50r={self.read_p50_ns / 1000:8.1f}us "
            f"p99r={self.read_p99_ns / 1000:8.1f}us "
            f"p999r={self.read_p999_ns / 1000:8.1f}us "
            f"p99w={self.write_p99_ns / 1000:8.1f}us "
            f"gc_blocked={self.gc_blocked_commands:<6} "
            f"DLWA={self.dlwa:5.2f}"
        )


@dataclasses.dataclass(frozen=True)
class LatencySoakResult:
    """FDP-on vs FDP-off tail latency under queue contention.

    The paper's Figure 13 direction: with placement segregation, SOC
    reads stop colliding with GC spans on the flash channels, so the
    FDP arm's p99 read latency drops below the Non-FDP arm's at high
    utilization (both arms replay the same seed).
    """

    workload: str
    utilization: float
    seed: int
    fdp_off: LatencyArm
    fdp_on: LatencyArm

    @property
    def p99_read_gain(self) -> float:
        """Non-FDP p99 read latency over FDP (>1 means FDP wins)."""
        if self.fdp_on.read_p99_ns == 0:
            return float("inf") if self.fdp_off.read_p99_ns else 1.0
        return self.fdp_off.read_p99_ns / self.fdp_on.read_p99_ns

    @property
    def acceptance(self) -> bool:
        """FDP-on p99 read strictly below FDP-off at ≥70% utilization."""
        return (
            self.utilization >= 0.70
            and self.fdp_on.read_p99_ns < self.fdp_off.read_p99_ns
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "utilization": self.utilization,
            "seed": self.seed,
            "fdp_off": self.fdp_off.to_dict(),
            "fdp_on": self.fdp_on.to_dict(),
        }

    def summary_table(self) -> str:
        lines = [
            f"latency-soak workload={self.workload} "
            f"util={self.utilization:.0%} seed={self.seed:#x}",
            self.fdp_off.summary_row(),
            self.fdp_on.summary_row(),
            f"p99 read gain (off/on): {self.p99_read_gain:5.2f}x  "
            f"acceptance(p99_on < p99_off @ util>=70%): "
            f"{'PASS' if self.acceptance else 'FAIL'}",
        ]
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class FleetWindow:
    """Fleet service quality over one measurement window of the soak.

    The soak compares three windows — ``pre`` (steady state before the
    shard loss), ``spike`` (immediately after it), and ``recovered``
    (the end of the run) — on the two headline signals: miss ratio and
    the fleet-merged p99 read latency.
    """

    name: str
    ops: int
    gets: int
    misses: int
    storm_misses: int
    degraded_misses: int
    read_p99_ns: int
    live_shards: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.gets if self.gets else 0.0

    def summary_row(self) -> str:
        return (
            f"{self.name:<10} {self.ops:>8} {self.miss_ratio:>7.3f} "
            f"{self.read_p99_ns / 1000:>10.0f} {self.storm_misses:>7} "
            f"{self.degraded_misses:>9} {self.live_shards:>6}"
        )

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class FleetSoakResult:
    """Verdict of the fleet shard-loss soak.

    Robustness acceptance: after a mid-run shard kill the surviving
    fleet must (a) hold exactly-once placement — zero misplaced,
    duplicated, or shadow-mismatched keys among survivors — and (b)
    recover service quality, with the ``recovered`` window's miss
    ratio and merged p99 read latency within ``tolerance`` of the
    pre-kill steady state.

    The steady state is estimated differentially: ``control`` is the
    same window of an identical fleet replaying the identical trace
    *without* the kill — the counterfactual "what would service look
    like now had the shard survived".  A single pre-kill window cannot
    serve as the baseline because per-window p99 carries ±20% GC-burst
    noise even on an undisturbed fleet (measured; see
    EXPERIMENTS.md); the paired control cancels that drift, the same
    differential-arm methodology the repo's batch and latency tests
    use.  The raw ``pre`` window is still reported for the spike
    narrative.
    """

    num_shards: int
    mix: str
    ops: int
    seed: int
    killed_shard: str
    kill_at_ops: int
    pre: FleetWindow
    spike: FleetWindow
    recovered: FleetWindow
    control: FleetWindow
    tolerance: float
    # Exactly-once verification (FleetCache.verify_placement).
    keys_resident: int
    misplaced: int
    duplicates: int
    shadow_mismatches: int
    # Rebalance / degradation accounting.
    rebalance_moved_items: int
    storm_misses_total: int
    degraded_misses_total: int
    dropped_sets: int
    retries: int
    transitions: List[dict]
    # Fleet-aggregate observability.
    fleet_dlwa: float
    energy_kwh: float
    co2e_kg: float
    shard_rows: List[dict]

    @property
    def placement_clean(self) -> bool:
        """No key lost to routing, resident twice, or shadow-divergent."""
        return (
            self.misplaced == 0
            and self.duplicates == 0
            and self.shadow_mismatches == 0
        )

    @staticmethod
    def _within(after: float, before: float, tolerance: float) -> bool:
        """``after`` no worse than ``before`` by more than ``tolerance``.

        One-sided: recovering *better* than the pre-kill baseline (a
        smaller fleet can run hotter caches per shard) always passes.
        """
        if before == 0:
            return after == 0
        return after <= before * (1.0 + tolerance)

    @property
    def miss_ratio_recovered(self) -> bool:
        return self._within(
            self.recovered.miss_ratio,
            self.control.miss_ratio,
            self.tolerance,
        )

    @property
    def p99_recovered(self) -> bool:
        return self._within(
            float(self.recovered.read_p99_ns),
            float(self.control.read_p99_ns),
            self.tolerance,
        )

    @property
    def acceptance(self) -> bool:
        return (
            self.placement_clean
            and self.miss_ratio_recovered
            and self.p99_recovered
        )

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["pre"] = self.pre.to_dict()
        out["spike"] = self.spike.to_dict()
        out["recovered"] = self.recovered.to_dict()
        out["control"] = self.control.to_dict()
        out["acceptance"] = self.acceptance
        return out

    def summary_table(self) -> str:
        header = (
            f"{'window':<10} {'ops':>8} {'miss':>7} {'p99(us)':>10} "
            f"{'storm':>7} {'degraded':>9} {'alive':>6}"
        )
        lines = [
            f"fleet-soak shards={self.num_shards} mix={self.mix} "
            f"ops={self.ops} seed={self.seed:#x}",
            f"killed {self.killed_shard} at op {self.kill_at_ops}; "
            f"rebalanced {self.rebalance_moved_items} items; "
            f"{self.storm_misses_total} storm misses",
            header,
            self.pre.summary_row(),
            self.spike.summary_row(),
            self.recovered.summary_row(),
            self.control.summary_row(),
            f"placement: resident={self.keys_resident} "
            f"misplaced={self.misplaced} duplicates={self.duplicates} "
            f"shadow_mismatch={self.shadow_mismatches} "
            f"[{'clean' if self.placement_clean else 'VIOLATED'}]",
            f"recovery vs no-kill control (tol {self.tolerance:.0%}): "
            f"miss {'PASS' if self.miss_ratio_recovered else 'FAIL'} "
            f"({self.recovered.miss_ratio:.3f} vs "
            f"{self.control.miss_ratio:.3f}), "
            f"p99 {'PASS' if self.p99_recovered else 'FAIL'} "
            f"({self.recovered.read_p99_ns / 1000:.0f}us vs "
            f"{self.control.read_p99_ns / 1000:.0f}us)",
            f"fleet dlwa={self.fleet_dlwa:.2f} "
            f"energy={self.energy_kwh * 1000:.2f}Wh "
            f"co2e={self.co2e_kg:.2f}kg  "
            f"acceptance: {'PASS' if self.acceptance else 'FAIL'}",
        ]
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class OverloadWindow:
    """Service quality over one window of the overload soak.

    One row per measurement window — ``pre`` (steady state before the
    flash crowd), ``burst`` (inside it), ``recovered`` (after it) — for
    one arm (governor-on or governor-off).  ``max_backlog_ns`` is the
    worst per-shard device backlog observed at the window edge: the
    open-loop queue the next op lands behind, the collapse signal
    itself.  ``label`` carries the scenario's ground-truth annotation
    for the window (e.g. ``flash_crowd`` overlap fraction), so damage
    in the row is attributable to what the traffic was doing.
    """

    name: str
    ops: int
    gets: int
    misses: int
    read_p99_ns: int
    max_backlog_ns: int
    shed_sets: int
    shed_loc_admissions: int
    label: Dict[str, float]

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.gets if self.gets else 0.0

    def summary_row(self) -> str:
        return (
            f"{self.name:<12} {self.ops:>8} {self.miss_ratio:>7.3f} "
            f"{self.read_p99_ns / 1e6:>9.1f} "
            f"{self.max_backlog_ns / 1e6:>9.1f} "
            f"{self.shed_sets:>9} {self.shed_loc_admissions:>9}"
        )

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class OverloadSoakResult:
    """Verdict of the flash-crowd overload soak (governor on vs off).

    Both arms replay the identical adversarial trace open loop — same
    seed, same arrival schedule — so admission control is the only
    degree of freedom.  Acceptance encodes the brownout contract:

    * **bounded** — the governor-on arm's burst-window p99 stays at
      least ``burst_advantage``× below the governor-off arm's (no
      unbounded queue growth while shedding is active);
    * **recovered** — the governor-on arm's post-burst p99 returns to
      within ``tolerance`` of its own pre-burst window;
    * **collapsed** — the governor-off arm *fails* to recover: its
      post-burst p99 stays at least ``collapse_factor``× above its
      pre-burst window (this is the arm proving the overload is real —
      if governor-off shrugs the burst off, the scenario is too gentle
      for the soak to claim anything);
    * **engaged** — the governor actually shed load (nonzero counters),
      so the pass is attributable to admission control, not luck.

    The miss-ratio columns document the price of graceful degradation:
    shed fills become later misses, which is the explicit trade — serve
    more misses, never let reads queue unboundedly.
    """

    num_shards: int
    ops: int
    seed: int
    scenario: str
    tolerance: float
    collapse_factor: float
    burst_advantage: float
    on_pre: OverloadWindow
    on_burst: OverloadWindow
    on_recovered: OverloadWindow
    off_pre: OverloadWindow
    off_burst: OverloadWindow
    off_recovered: OverloadWindow
    governor_counters: Dict[str, object]
    queue_rejections: Dict[str, int]

    @property
    def p99_bounded(self) -> bool:
        return (
            self.on_burst.read_p99_ns * self.burst_advantage
            <= self.off_burst.read_p99_ns
        )

    @property
    def p99_recovered(self) -> bool:
        if self.on_pre.read_p99_ns == 0:
            return self.on_recovered.read_p99_ns == 0
        return self.on_recovered.read_p99_ns <= self.on_pre.read_p99_ns * (
            1.0 + self.tolerance
        )

    @property
    def off_collapsed(self) -> bool:
        return (
            self.off_recovered.read_p99_ns
            >= self.off_pre.read_p99_ns * self.collapse_factor
        )

    @property
    def governor_engaged(self) -> bool:
        shed = int(self.governor_counters.get("shed_sets", 0)) + int(
            self.governor_counters.get("shed_loc_admissions", 0)
        )
        return shed > 0

    @property
    def acceptance(self) -> bool:
        return (
            self.p99_bounded
            and self.p99_recovered
            and self.off_collapsed
            and self.governor_engaged
        )

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["acceptance"] = self.acceptance
        return out

    def summary_table(self) -> str:
        header = (
            f"{'window':<12} {'ops':>8} {'miss':>7} {'p99(ms)':>9} "
            f"{'bklg(ms)':>9} {'shedSET':>9} {'shedLOC':>9}"
        )
        lines = [
            f"overload-soak shards={self.num_shards} ops={self.ops} "
            f"scenario={self.scenario} seed={self.seed:#x}",
            header,
            self.on_pre.summary_row(),
            self.on_burst.summary_row(),
            self.on_recovered.summary_row(),
            self.off_pre.summary_row(),
            self.off_burst.summary_row(),
            self.off_recovered.summary_row(),
            f"governor: {self.governor_counters}",
            f"queue rejections: {self.queue_rejections or '{}'}",
            f"burst bounded (on*{self.burst_advantage:g} <= off): "
            f"{'PASS' if self.p99_bounded else 'FAIL'} "
            f"({self.on_burst.read_p99_ns / 1e6:.1f}ms vs "
            f"{self.off_burst.read_p99_ns / 1e6:.1f}ms)",
            f"recovery (tol {self.tolerance:.0%} of pre-burst): "
            f"{'PASS' if self.p99_recovered else 'FAIL'} "
            f"({self.on_recovered.read_p99_ns / 1e6:.1f}ms vs "
            f"{self.on_pre.read_p99_ns / 1e6:.1f}ms)",
            f"governor-off collapse (>= {self.collapse_factor:g}x pre): "
            f"{'PASS' if self.off_collapsed else 'FAIL'} "
            f"({self.off_recovered.read_p99_ns / 1e6:.1f}ms vs "
            f"{self.off_pre.read_p99_ns / 1e6:.1f}ms)",
            f"governor engaged: "
            f"{'PASS' if self.governor_engaged else 'FAIL'}  "
            f"acceptance: {'PASS' if self.acceptance else 'FAIL'}",
        ]
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class FailSlowWindow:
    """Service quality over one window of the fail-slow soak."""

    name: str
    ops: int
    gets: int
    misses: int
    deadline_misses: int
    read_p99_ns: int
    live_shards: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.gets if self.gets else 0.0

    def summary_row(self) -> str:
        return (
            f"{self.name:<16} {self.ops:>8} {self.miss_ratio:>7.3f} "
            f"{self.read_p99_ns / 1000:>10.0f} {self.deadline_misses:>9} "
            f"{self.live_shards:>6}"
        )

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class FailSlowArm:
    """One arm of the fail-slow soak (windows + reaction counters)."""

    name: str
    pre: FailSlowWindow
    fault: FailSlowWindow
    recovered: FailSlowWindow
    deadline_misses: int
    gray_detections: int
    quarantines: int
    transitions: List[dict]

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class FailSlowSoakResult:
    """Verdict of the fail-slow soak (gray-failure containment).

    Three arms replay the identical trace on identical fleets; only
    the fault and the reaction differ:

    * ``control`` — no fault, detector and deadlines ON.  Its
      ``recovered`` window is the counterfactual baseline, and its
      zero reaction counters prove the detector does not false-fire on
      a healthy fleet;
    * ``detector_on`` — slow die injected mid-run, detector and
      deadlines ON (the containment arm);
    * ``detector_off`` — the same fault with no reaction enabled (the
      damage arm: what gray failure costs an unprotected fleet).

    Acceptance:

    * **contained** — detector-on's recovered p99 is within
      ``recovery_factor``× of the control's (quarantine removed the
      slow shard, survivors carry the traffic at healthy tails);
    * **off_inflated** — detector-off's recovered p99 stays at least
      ``inflation_factor``× above the control's (the arm proving the
      injected fault actually hurts — if it doesn't, the soak has
      nothing to contain);
    * **detector_fired** — detector-on detected and quarantined the
      victim, and booked nonzero deadline misses (the pass is
      attributable to the reaction path, not luck);
    * **counters_clean** — the control arm booked zero deadline
      misses, detections, and quarantines (reaction counters are
      nonzero only in faulted arms).
    """

    num_shards: int
    ops: int
    seed: int
    victim_shard: str
    slow_die: int
    slow_multiplier: float
    fault_at_ops: int
    deadline_ns: int
    recovery_factor: float
    inflation_factor: float
    control: FailSlowArm
    detector_on: FailSlowArm
    detector_off: FailSlowArm

    @property
    def contained(self) -> bool:
        baseline = self.control.recovered.read_p99_ns
        if baseline == 0:
            return self.detector_on.recovered.read_p99_ns == 0
        return (
            self.detector_on.recovered.read_p99_ns
            <= baseline * self.recovery_factor
        )

    @property
    def off_inflated(self) -> bool:
        return (
            self.detector_off.recovered.read_p99_ns
            >= self.control.recovered.read_p99_ns * self.inflation_factor
        )

    @property
    def detector_fired(self) -> bool:
        return (
            self.detector_on.gray_detections >= 1
            and self.detector_on.quarantines >= 1
            and self.detector_on.deadline_misses > 0
        )

    @property
    def counters_clean(self) -> bool:
        return (
            self.control.deadline_misses == 0
            and self.control.gray_detections == 0
            and self.control.quarantines == 0
        )

    @property
    def acceptance(self) -> bool:
        return (
            self.contained
            and self.off_inflated
            and self.detector_fired
            and self.counters_clean
        )

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["acceptance"] = self.acceptance
        return out

    def summary_table(self) -> str:
        header = (
            f"{'window':<16} {'ops':>8} {'miss':>7} {'p99(us)':>10} "
            f"{'ddl-miss':>9} {'alive':>6}"
        )
        rows: List[str] = []
        for arm in (self.control, self.detector_on, self.detector_off):
            for window in (arm.pre, arm.fault, arm.recovered):
                named = dataclasses.replace(
                    window, name=f"{arm.name}:{window.name}"
                )
                rows.append(named.summary_row())
        on, off, ctl = self.detector_on, self.detector_off, self.control
        lines = [
            f"failslow-soak shards={self.num_shards} ops={self.ops} "
            f"seed={self.seed:#x}",
            f"slow die {self.slow_die} x{self.slow_multiplier:g} on "
            f"{self.victim_shard} at op {self.fault_at_ops}; "
            f"deadline {self.deadline_ns / 1e6:g}ms",
            header,
            *rows,
            f"contained (on <= {self.recovery_factor:g}x control): "
            f"{'PASS' if self.contained else 'FAIL'} "
            f"({on.recovered.read_p99_ns / 1000:.0f}us vs "
            f"{ctl.recovered.read_p99_ns / 1000:.0f}us)",
            f"off inflated (off >= {self.inflation_factor:g}x control): "
            f"{'PASS' if self.off_inflated else 'FAIL'} "
            f"({off.recovered.read_p99_ns / 1000:.0f}us vs "
            f"{ctl.recovered.read_p99_ns / 1000:.0f}us)",
            f"detector fired: {'PASS' if self.detector_fired else 'FAIL'} "
            f"(detections={on.gray_detections} quarantines={on.quarantines} "
            f"deadline_misses={on.deadline_misses})",
            f"control counters clean: "
            f"{'PASS' if self.counters_clean else 'FAIL'}  "
            f"acceptance: {'PASS' if self.acceptance else 'FAIL'}",
        ]
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class AblationCell:
    """One policy × placement × engine cell of the ablation matrix."""

    policy: str
    engine: str
    fdp: bool
    dlwa: float
    steady_dlwa: float
    miss_ratio: float
    p99_read_us: float
    alwa: float
    admit_ratio: float
    nand_pages_written: int
    host_pages_written: int

    def summary_row(self) -> str:
        placement = "FDP" if self.fdp else "Non-FDP"
        return (
            f"{self.policy:<10} {self.engine:<10} {placement:<8} "
            f"{self.dlwa:>6.3f} {self.steady_dlwa:>7.3f} "
            f"{self.miss_ratio * 100:>6.1f} {self.p99_read_us:>9.0f} "
            f"{self.admit_ratio * 100:>7.1f}"
        )


@dataclasses.dataclass(frozen=True)
class AblationResult:
    """Verdict of the policy-vs-placement ablation.

    The matrix replays {policy} × {FDP on/off} × {engine} cells on one
    shared ``point_seed`` trace, so within a row the only degree of
    freedom is the axis under test.  Acceptance stresses the paper's
    claim from both sides on the ``gate_engine`` (Kangaroo — the
    paper's architecture) cells:

    * **survival_recovers** — survival admission without FDP recovers
      at least ``recovery_threshold`` of the DLWA gap AcceptAll/non-FDP
      leaves above the ideal 1.0 (admission alone is *not* nothing);
    * **composes** — survival + FDP lands at or below the better of
      the two single levers plus ``compose_tolerance`` (the levers
      don't fight);
    * **nemo_soak_ok** — the Nemo engine completed the integrity
      (chaos-fault replay + warm restart) and scheduler soak arms with
      invariants intact (the engine seam holds for a third engine).

    The miss-ratio column reports what admission *costs*: survival buys
    its DLWA recovery with extra misses, which is exactly the trade the
    paper's placement approach avoids.
    """

    ops: int
    seed: int
    gate_engine: str
    recovery_threshold: float
    compose_tolerance: float
    cells: List[AblationCell]
    nemo_soak: Dict[str, object]
    failures: List[str]

    def cell(
        self, policy: str, engine: str, fdp: bool
    ) -> Optional[AblationCell]:
        for c in self.cells:
            if c.policy == policy and c.engine == engine and c.fdp == fdp:
                return c
        return None

    @property
    def recovered_fraction(self) -> float:
        """Share of the non-FDP DLWA gap survival admission closes."""
        base = self.cell("acceptall", self.gate_engine, False)
        surv = self.cell("survival", self.gate_engine, False)
        if base is None or surv is None:
            return 0.0
        gap = base.dlwa - 1.0
        if gap <= 0:
            return 0.0
        return (base.dlwa - surv.dlwa) / gap

    @property
    def survival_recovers(self) -> bool:
        return self.recovered_fraction >= self.recovery_threshold

    @property
    def composes(self) -> bool:
        surv = self.cell("survival", self.gate_engine, False)
        fdp = self.cell("acceptall", self.gate_engine, True)
        both = self.cell("survival", self.gate_engine, True)
        if surv is None or fdp is None or both is None:
            return False
        return both.dlwa <= min(surv.dlwa, fdp.dlwa) + self.compose_tolerance

    @property
    def nemo_soak_ok(self) -> bool:
        return bool(self.nemo_soak.get("ok"))

    @property
    def acceptance(self) -> bool:
        return (
            not self.failures
            and self.survival_recovers
            and self.composes
            and self.nemo_soak_ok
        )

    def to_dict(self) -> Dict[str, object]:
        out = dataclasses.asdict(self)
        out["recovered_fraction"] = self.recovered_fraction
        out["acceptance"] = self.acceptance
        return out

    def summary_table(self) -> str:
        header = (
            f"{'policy':<10} {'engine':<10} {'place':<8} {'DLWA':>6} "
            f"{'steady':>7} {'miss%':>6} {'p99r(us)':>9} {'admit%':>7}"
        )
        lines = [
            f"ablation ops={self.ops} seed={self.seed:#x} "
            f"gate_engine={self.gate_engine}",
            header,
            *(c.summary_row() for c in self.cells),
            *(f"FAILED: {f}" for f in self.failures),
            f"survival recovers >= {self.recovery_threshold:.0%} of the "
            f"non-FDP DLWA gap: "
            f"{'PASS' if self.survival_recovers else 'FAIL'} "
            f"(recovered {self.recovered_fraction:.0%})",
            f"survival+FDP composes (<= best single lever "
            f"+{self.compose_tolerance:g}): "
            f"{'PASS' if self.composes else 'FAIL'}",
            f"nemo integrity+scheduler soaks: "
            f"{'PASS' if self.nemo_soak_ok else 'FAIL'} "
            f"({self.nemo_soak})",
            f"acceptance: {'PASS' if self.acceptance else 'FAIL'}",
        ]
        return "\n".join(lines)


def steady_state_dlwa(series: Sequence[IntervalPoint]) -> Optional[float]:
    """Mean interval DLWA over the last half of the run (post warm-up)."""
    if not series:
        return None
    tail = series[len(series) // 2 :]
    return float(np.mean([p.interval_dlwa for p in tail]))
