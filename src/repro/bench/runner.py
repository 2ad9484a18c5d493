"""Experiment setup builders shared by all benchmarks and examples.

The paper's testbed (1.88 TB PM9D3, 60-hour runs) is scaled down so a
full experiment arm completes in seconds while preserving the ratios
that govern DLWA (see DESIGN.md §1): device overprovisioning fraction,
SOC fraction of the flash cache, DRAM:flash ratio, utilization, and
the working-set-to-cache ratio.

Every figure/table bench builds its arms through
:func:`build_experiment` / :func:`run_experiment` so the scaled
constants live in exactly one place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Callable, Dict, List, Optional, Tuple

from ..cache.config import CacheConfig
from ..cache.hybrid import METADATA_PAGES, HybridCache
from ..core.policies import PlacementPolicy
from ..faults.latent import LatentErrorConfig
from ..faults.model import FaultConfig
from ..faults.plan import OP_POWER, OP_SILENT, ScriptedFault
from ..fdp.config import FdpConfiguration
from ..fdp.ruh import PlacementIdentifier
from ..ssd.device import SimulatedSSD
from ..ssd.errors import PowerLossError, UncorrectableReadError
from ..ssd.geometry import Geometry
from ..ssd.scrub import ScrubConfig
from ..workloads.kvcache import kv_cache_trace, wo_kv_cache_trace
from ..workloads.trace import Trace
from ..workloads.twitter import twitter_cluster12_trace
from .driver import CacheBench, ReplayConfig
from .metrics import Gate, RunResult, SoakResult

__all__ = [
    "Scale",
    "DEFAULT_SCALE",
    "CHAOS_SCALE",
    "CRASH_SCALE",
    "INTEGRITY_SCALE",
    "point_seed",
    "build_experiment",
    "run_experiment",
    "default_chaos_config",
    "run_chaos_soak",
    "run_crash_soak",
    "default_integrity_latent",
    "run_integrity_soak",
    "run_integrity_arms",
]


def point_seed(figure: str, index: int) -> int:
    """Deterministic seed for one sweep point of one figure.

    Derived as the first 4 bytes of ``sha256("figure:index")`` so
    distinct figures (and distinct points within a figure) get
    decorrelated traces, while the mapping is stable across runs,
    machines, and worker schedules.  All arms *within* the point share
    it (see :mod:`repro.bench.parallel`'s determinism contract).  The
    soak benches below seed their RNGs from this too — every
    deterministic run in the repo derives from the same contract.
    """
    digest = hashlib.sha256(f"{figure}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:4], "big")


@dataclasses.dataclass(frozen=True)
class Scale:
    """Scaled-down stand-ins for the paper's testbed constants."""

    page_size: int = 4096
    pages_per_block: int = 32  # 2 dies x 2 planes -> 128-page superblock
    num_superblocks: int = 512  # 256 MiB physical
    device_op_fraction: float = 0.07
    region_bytes: int = 128 * 1024
    soc_fraction: float = 0.04  # paper default SOC size
    dram_fraction: float = 0.045  # paper: ~42 GB DRAM : 930 GB flash
    working_set_factor: float = 1.3  # working set vs. flash cache size
    mean_object_bytes: int = 3200  # derived from the size mixture
    num_ops: int = 1_000_000

    def geometry(self) -> Geometry:
        return Geometry(
            page_size=self.page_size,
            pages_per_block=self.pages_per_block,
            planes_per_die=2,
            dies=2,
            num_superblocks=self.num_superblocks,
            op_fraction=self.device_op_fraction,
        )


DEFAULT_SCALE = Scale()

_WORKLOADS = {
    "kvcache": kv_cache_trace,
    "wo-kvcache": wo_kv_cache_trace,
    "twitter": twitter_cluster12_trace,
}


def ops_or_default(num_ops: Optional[int], default: int) -> int:
    """``num_ops``, or ``default`` when it is ``None`` (0 is not "use
    the default": a run of fewer than one op is refused)."""
    if num_ops is None:
        return default
    if num_ops < 1:
        raise ValueError(f"num_ops must be >= 1, got {num_ops}")
    return num_ops


def make_trace(
    workload: str,
    nvm_bytes: int,
    scale: Scale = DEFAULT_SCALE,
    *,
    num_ops: Optional[int] = None,
    seed: int = 42,
) -> Trace:
    """Build a scaled trace whose working set matches the cache size."""
    try:
        generator = _WORKLOADS[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {sorted(_WORKLOADS)}"
        ) from None
    num_keys = max(
        1024,
        int(nvm_bytes * scale.working_set_factor / scale.mean_object_bytes),
    )
    return generator(ops_or_default(num_ops, scale.num_ops), num_keys, seed=seed)


def build_experiment(
    *,
    fdp: "bool | FdpConfiguration",
    utilization: float = 0.5,
    soc_fraction: Optional[float] = None,
    dram_bytes: Optional[int] = None,
    scale: Scale = DEFAULT_SCALE,
    cache_overrides: Optional[Dict[str, object]] = None,
    device_overrides: Optional[Dict[str, object]] = None,
    policy: Optional[Callable[[], PlacementPolicy]] = None,
    admission_seed: Optional[int] = None,
) -> HybridCache:
    """Create a device + hybrid cache pair for one experiment arm.

    ``fdp`` switches both sides at once, as the paper does with
    nvme-cli: device FDP support *and* CacheLib placement; an
    :class:`~repro.fdp.config.FdpConfiguration` also picks the device's.
    ``utilization`` is the fraction of the device's advertised capacity
    given to the flash cache (Figure 6's sweep variable).
    ``device_overrides`` are extra :class:`~repro.ssd.device.SimulatedSSD`
    keywords (``faults``, ``sched``, ``failslow``, ``wear_level_threshold``).
    ``policy`` is a zero-argument placement-policy factory, called once
    (default: static SOC/LOC segregation).
    ``admission_seed`` reseeds the cache's admission policy (see
    :attr:`~repro.cache.config.CacheConfig.admission_seed`); benches
    pass the sweep point's seed so a randomized admission policy
    supplied via ``cache_overrides`` is pinned by the same
    ``point_seed`` contract as the trace, instead of silently keeping
    its class-default seed across every arm.  An explicit
    ``admission_seed`` in ``cache_overrides`` wins.
    """
    if not 0.0 < utilization <= 1.0:
        raise ValueError("utilization must be in (0, 1]")
    geometry = scale.geometry()
    device = SimulatedSSD(geometry, fdp=fdp, **(device_overrides or {}))
    # Reserve the metadata slice out of the cache's share so a
    # 100%-utilization layout still fits the advertised capacity.
    nvm_bytes = (
        int(geometry.logical_bytes * utilization)
        - METADATA_PAGES * geometry.page_size
    )
    overrides: Dict[str, object] = {"admission_seed": admission_seed}
    overrides.update(cache_overrides or {})
    config = CacheConfig.for_flash_cache(
        nvm_bytes,
        page_size=geometry.page_size,
        soc_fraction=(
            soc_fraction if soc_fraction is not None else scale.soc_fraction
        ),
        dram_fraction=scale.dram_fraction,
        dram_bytes=dram_bytes,
        region_bytes=scale.region_bytes,
        enable_fdp_placement=bool(fdp),
        **overrides,
    )
    return HybridCache(device, config, policy=policy() if policy else None)


def run_experiment(
    workload: str,
    *,
    fdp: "bool | FdpConfiguration",
    utilization: float = 0.5,
    num_ops: Optional[int] = None,
    scale: Scale = DEFAULT_SCALE,
    seed: int = 42,
    replay: Optional[ReplayConfig] = None,
    name: Optional[str] = None,
    scenario: Optional[object] = None,
    **arm: object,
) -> RunResult:
    """Build one arm (device, cache, trace) and replay it.

    ``arm`` holds the rest of :func:`build_experiment`'s keywords.
    ``scenario`` (default ``None`` — stationary replay, the pre-existing
    path exactly) applies an adversarial transform composition to the
    trace before replay: either a
    :class:`~repro.workloads.adversarial.Scenario` instance or one of
    the :data:`~repro.workloads.adversarial.SCENARIOS` names (built via
    :func:`~repro.workloads.adversarial.build_scenario` with this
    experiment's ``seed``).  Scenario traces carry an arrival schedule,
    so the replay switches to open loop automatically.
    """
    cache = build_experiment(
        fdp=fdp, utilization=utilization, scale=scale, admission_seed=seed, **arm
    )
    trace = make_trace(
        workload,
        cache.config.nvm_bytes,
        scale,
        num_ops=num_ops,
        seed=seed,
    )
    if scenario is not None:
        if isinstance(scenario, str):
            from ..workloads.adversarial import build_scenario

            scenario = build_scenario(scenario, seed=seed)
        trace = scenario.apply(trace)
    label = name or f"{workload} util={utilization:.0%} {'FDP' if fdp else 'Non-FDP'}"
    return CacheBench(replay).run(cache, trace, name=label)


# Chaos runs shrink the device to 64 MiB physical so a short soak
# overwrites it several times: GC must erase superblocks repeatedly,
# which is what gives the scripted cycle-targeted erase failures (and
# wear in general) something to hit.
CHAOS_SCALE = Scale(num_superblocks=128, num_ops=300_000)


def default_chaos_config(seed: int = 0xFA17) -> FaultConfig:
    """The standard chaos-soak fault profile.

    Probabilistic UECCs and program failures at 1e-4 per op (orders of
    magnitude above a healthy drive's UBER, so a short run still sees
    dozens of events), plus two scripted erase failures that force
    permanent superblock retirements at deterministic points.
    """
    return FaultConfig(
        seed=seed,
        read_uecc_rate=1e-4,
        program_fail_rate=1e-4,
        plan=(
            ScriptedFault(op="erase", superblock=7, cycle=2),
            ScriptedFault(op="erase", superblock=11, cycle=3),
        ),
    )


def run_chaos_soak(
    workload: str = "kvcache",
    *,
    fdp: bool = True,
    utilization: float = 0.9,
    num_ops: Optional[int] = None,
    scale: Scale = CHAOS_SCALE,
    seed: int = 42,
    faults: Optional[FaultConfig] = None,
    max_steady_dlwa: float = 3.0,
    min_hit_ratio: float = 0.3,
) -> SoakResult:
    """Replay a workload against a deliberately failing device.

    The graceful-degradation soak: the cache must keep serving while
    the device throws UECCs, program failures, and scripted erase
    failures that permanently retire superblocks.  FTL invariants must
    still hold afterwards (a broken one raises).  The gates: steady
    DLWA stays at most ``max_steady_dlwa``, the hit ratio at least
    ``min_hit_ratio``, and the run saw media errors at all.  The row
    carries the run's counters, the evidence the device's post-run
    SMART-like health log.  ``python -m repro.bench soak chaos`` runs it.
    """
    if faults is None:
        faults = default_chaos_config()
    cache = build_experiment(
        fdp=fdp, utilization=utilization, scale=scale, device_overrides={"faults": faults}
    )
    trace = make_trace(
        workload, cache.config.nvm_bytes, scale, num_ops=num_ops, seed=seed
    )
    arm = "FDP" if fdp else "Non-FDP"
    result = CacheBench().run(cache, trace, name=f"chaos {workload} {arm}")
    cache.device.check_invariants()
    row = dataclasses.asdict(result)
    del row["name"], row["interval_series"]
    return SoakResult(
        soak="chaos",
        params=dict(workload=workload, utilization=utilization, ops=result.ops, seed=seed),
        columns=(
            "arm", "hit_ratio", "steady_dlwa", "read_errors", "write_errors", "write_drops",
            "io_retries", "retired_superblocks", "available_spare_pct",
        ),
        rows=[{"arm": arm, **row}],
        gates=[
            Gate(
                "steady_dlwa_in_band",
                result.steady_dlwa <= max_steady_dlwa,
                f"{result.steady_dlwa:.3f} <= {max_steady_dlwa}",
            ),
            Gate(
                "hit_ratio_in_band",
                result.hit_ratio >= min_hit_ratio,
                f"{result.hit_ratio:.3f} >= {min_hit_ratio}",
            ),
            Gate("faults_injected", result.media_errors > 0, f"media_errors={result.media_errors}"),
        ],
        evidence={"health": dataclasses.asdict(cache.device.get_health_log())},
    )


# The crash soak shrinks the device further (16 MiB physical) so the
# write phases overwrite it repeatedly: GC relocations must interleave
# with the host writes the cuts tear, which is the hard case for L2P
# reconstruction.
CRASH_SCALE = Scale(num_superblocks=32)

# One cut per cycle, rotating through the three cut modes.
_CUT_MODES = ("scripted", "inflight", "quiescent")


def _crash_soak_schedule(
    rng: random.Random,
    cycles: int,
    commands_per_cycle: int,
    span: int,
    trim_fraction: float,
) -> Tuple[List[dict], Tuple[ScriptedFault, ...]]:
    """Precompute the soak's full command schedule and fault plan.

    Scripted power cuts target absolute host page-program indices, so
    the schedule must be fixed before the device exists; the execution
    loop then replays it verbatim.  Returns ``(cycle_descriptors,
    scripted_fault_entries)``.
    """
    plan: List[ScriptedFault] = []
    schedule: List[dict] = []
    attempts = 0  # global host page-program attempt counter
    for c in range(cycles):
        mode = _CUT_MODES[c % len(_CUT_MODES)]
        commands: List[Tuple[str, int, int]] = []
        cycle_attempts = 0
        for _ in range(commands_per_cycle):
            npages = rng.randrange(1, 9)
            lba = rng.randrange(0, span - npages)
            if rng.random() < trim_fraction:
                commands.append(("trim", lba, npages))
            else:
                commands.append(("write", lba, npages))
                cycle_attempts += npages
        cut_attempt = None
        if mode == "scripted" and cycle_attempts:
            # The cut fires *during* this cycle's writes; everything
            # scheduled after it is never issued.
            cut_attempt = rng.randrange(1, cycle_attempts + 1)
            plan.append(
                ScriptedFault(op=OP_POWER, op_index=attempts + cut_attempt)
            )
            attempts += cut_attempt
        else:
            attempts += cycle_attempts
        schedule.append(
            {
                "mode": mode,
                "commands": commands,
                "cut_attempt": cut_attempt,
                # How many completion times back the in-flight cut
                # rewinds the clock (drawn now for determinism).
                "inflight_depth": rng.randrange(2, 7),
            }
        )
    return schedule, tuple(plan)


def run_crash_soak(
    *,
    cycles: int = 12,
    commands_per_cycle: int = 96,
    span: int = 1024,
    trim_fraction: float = 0.08,
    fdp: bool = True,
    scale: Scale = CRASH_SCALE,
    seed: Optional[int] = None,
    checkpoint_interval_pages: int = 768,
    journal_flush_interval: int = 48,
) -> SoakResult:
    """Write → power-cut → recover → verify soak against a shadow map.

    Each cycle issues a seeded batch of multi-page writes (every write
    carries a unique payload token) and TRIMs over a hot ``span`` of
    LBAs, then cuts power in one of three rotating modes:

    * ``scripted`` — a :data:`~repro.faults.plan.OP_POWER` plan entry
      tears one write mid-command at a precomputed host page-program
      index;
    * ``inflight`` — :meth:`~repro.ssd.device.SimulatedSSD.power_cut`
      at a point before recent completions, so the device tears the
      in-flight window at its seed-driven tear point;
    * ``quiescent`` — a cut with nothing in flight.

    After every recovery the device's L2P map is reconciled *exactly*
    against the host-side shadow reference: every acknowledged write
    (and the durable prefix of each torn one, per the cut report) must
    be present with its token, and nothing else may be mapped.  Any
    divergence — a lost acknowledged write or a phantom mapping —
    raises ``AssertionError``, as does a broken FTL invariant.  The
    stats/DLWA accounting checked after every cycle (counters never
    move backwards, cuts and recoveries advance in lockstep, DLWA ≥ 1)
    are the soak's gates; its rows are the cycles.

    The defaults give 12 cuts (4 per mode) on a device small enough
    that GC interleaves with the torn writes.  ``seed`` defaults to
    ``point_seed("crash_soak", 0)`` — the same sweep-seed contract
    every other deterministic run derives from.  ``python -m
    repro.bench soak crash`` runs it.
    """
    if seed is None:
        seed = point_seed("crash_soak", 0)
    if cycles < 1:
        raise ValueError("cycles must be positive")
    if span < 16:
        raise ValueError("span must be at least 16 LBAs")
    geometry = scale.geometry()
    if span > geometry.logical_pages:
        raise ValueError("span exceeds the device's logical capacity")
    rng = random.Random(seed)
    schedule, plan = _crash_soak_schedule(
        rng, cycles, commands_per_cycle, span, trim_fraction
    )
    device = SimulatedSSD(
        geometry,
        fdp=fdp,
        faults=FaultConfig(plan=plan) if plan else None,
        checkpoint_interval_pages=checkpoint_interval_pages,
        journal_flush_interval=journal_flush_interval,
    )

    shadow: Dict[int, object] = {}  # lba -> payload token of durable data
    counters = {
        "scripted": 0,
        "inflight": 0,
        "quiescent": 0,
        "commands": 0,
        "pages_written": 0,
        "pages_verified": 0,
        "pages_trimmed": 0,
        "torn_writes": 0,
        "mappings_recovered": 0,
        "journal_replayed": 0,
        "verified_cycles": 0,
    }
    rows: List[Dict[str, object]] = []
    monotone = in_step = dlwa_sane = True
    now = 0
    token_counter = 0
    for c, cycle in enumerate(schedule):
        # Issue phase.  ``issued`` tracks this cycle's write commands as
        # (lba, npages, token, prev-contents, completion_ns) so a torn
        # suffix can be reverted exactly.
        issued: List[Tuple[int, int, object, Tuple[object, ...], int]] = []
        cut_exc: Optional[PowerLossError] = None
        for op, lba, npages in cycle["commands"]:
            counters["commands"] += 1
            if op == "trim":
                device.deallocate(lba, npages)
                for i in range(npages):
                    if shadow.pop(lba + i, None) is not None:
                        counters["pages_trimmed"] += 1
                continue
            token_counter += 1
            token = ("crash-soak", c, token_counter)
            prev = tuple(shadow.get(lba + i) for i in range(npages))
            try:
                now = device.write(lba, npages, now_ns=now, payload=token)
            except PowerLossError as exc:
                cut_exc = exc
                # Only the durable prefix of the torn command landed.
                for i in range(exc.pages_durable):
                    shadow[lba + i] = token
                    counters["pages_written"] += 1
                break
            issued.append((lba, npages, token, prev, now))
            for i in range(npages):
                shadow[lba + i] = token
            counters["pages_written"] += npages

        # Cut phase.
        mode = cycle["mode"]
        if mode == "scripted" and cycle["cut_attempt"] is None:
            # Degenerate all-TRIM cycle: nothing to tear, cut quiescent.
            mode = "quiescent"
        if mode == "scripted":
            if cut_exc is None:
                raise AssertionError(
                    f"cycle {c}: scripted power cut never fired"
                )
            counters["torn_writes"] += 1
        elif mode == "inflight":
            depth = min(cycle["inflight_depth"], len(issued))
            cut_ns = issued[-depth][4] - 1 if depth else None
            report = device.power_cut(cut_ns)
            # Torn commands are an exact suffix of the issue order (a
            # single tear point cannot skip a command), so the report
            # reconciles against the last len(torn_writes) issues,
            # reverted newest-first.
            torn = report.torn_writes
            counters["torn_writes"] += sum(
                1 for t in torn if t.pages_durable < t.npages
            )
            for k in range(len(torn) - 1, -1, -1):
                lba, npages, token, prev, _ = issued[-len(torn) + k]
                t = torn[k]
                if (t.lba, t.npages) != (lba, npages):
                    raise AssertionError(
                        f"cycle {c}: torn-write report mismatch: "
                        f"device says ({t.lba},{t.npages}), "
                        f"host issued ({lba},{npages})"
                    )
                for i in range(t.pages_durable, npages):
                    if prev[i] is None:
                        shadow.pop(lba + i, None)
                    else:
                        shadow[lba + i] = prev[i]
                    counters["pages_written"] -= 1
        else:
            device.power_cut()
        counters[mode] += 1

        # Recover and verify.
        stats_before = device.snapshot()
        recovery = device.recover()
        counters["mappings_recovered"] += recovery.mappings_recovered
        counters["journal_replayed"] += recovery.journal_entries_replayed
        device.check_invariants()

        observed = device.read_payload(0, span)
        for lba in range(span):
            expect = shadow.get(lba)
            if observed[lba] != expect:
                raise AssertionError(
                    f"cycle {c} ({mode}): L2P divergence at LBA {lba}: "
                    f"device holds {observed[lba]!r}, shadow expects "
                    f"{expect!r} — "
                    + (
                        "lost acknowledged write"
                        if expect is not None
                        else "phantom mapping"
                    )
                )
            counters["pages_verified"] += 1
        mapped = sum(1 for p in observed if p is not None)
        if mapped != len(shadow):
            raise AssertionError(
                f"cycle {c}: mapped-page count {mapped} != shadow "
                f"{len(shadow)}"
            )

        # Accounting must survive the cut: cumulative counters never
        # move backwards and the crash counters advance in lockstep.
        stats_after = device.snapshot()
        monotone &= (
            stats_after.host_pages_written >= stats_before.host_pages_written
            and stats_after.nand_pages_written >= stats_before.nand_pages_written
        )
        in_step &= stats_after.power_cuts == stats_after.recoveries == c + 1
        dlwa_sane &= device.dlwa >= 1.0 or not stats_after.host_pages_written
        counters["verified_cycles"] += 1
        rows.append(
            {
                "cycle": c,
                "mode": mode,
                "mapped": mapped,
                "recovered": recovery.mappings_recovered,
                "torn": device.stats.torn_pages_discarded,
                "dlwa": device.dlwa,
            }
        )

    totals = {
        "verified_cycles": counters["verified_cycles"],
        "power_cuts": device.stats.power_cuts,
        "scripted_cuts": counters["scripted"],
        "inflight_cuts": counters["inflight"],
        "quiescent_cuts": counters["quiescent"],
        "commands_issued": counters["commands"],
        "pages_written": counters["pages_written"],
        "pages_verified": counters["pages_verified"],
        "pages_trimmed": counters["pages_trimmed"],
        "torn_writes": counters["torn_writes"],
        "torn_pages_discarded": device.stats.torn_pages_discarded,
        "mappings_recovered_total": counters["mappings_recovered"],
        "journal_entries_replayed_total": counters["journal_replayed"],
        "final_mapped_pages": len(shadow),
        "final_dlwa": device.dlwa,
    }
    return SoakResult(
        soak="crash",
        params=dict(
            cycles=cycles, commands_per_cycle=commands_per_cycle, span=span, fdp=fdp, seed=seed
        ),
        columns=("cycle", "mode", "mapped", "recovered", "torn", "dlwa"),
        rows=rows,
        gates=[
            Gate("accounting_monotone", monotone, "host and NAND page counters across cuts"),
            Gate("crash_counters_in_step", in_step, "power cuts == recoveries == cycles"),
            Gate("dlwa_at_least_one", dlwa_sane, f"final DLWA {device.dlwa:.3f}"),
        ],
        evidence=totals,
    )


# The integrity soak uses a 24 MiB device: small enough that retention
# ages (sequence-clock distances) reach the refresh threshold within a
# short run, big enough that the cold fill spans several CLOSED
# superblocks for the patrol to walk.
INTEGRITY_SCALE = Scale(num_superblocks=48)


def default_integrity_latent(
    span: int, seed: int = 0x1A7E
) -> LatentErrorConfig:
    """The standard integrity-soak latent-error profile.

    Rates are orders of magnitude above a healthy drive's so a short
    run exercises the whole ladder: retention pushes cold pages over
    the scrubber's refresh threshold, read disturb pushes hot
    neighbours into the correctable/soft-retry bands, and silent
    corruption lands a handful of bad programs.  Three scripted
    :data:`~repro.faults.plan.OP_SILENT` entries target host page
    programs in the *cold* half of the soak's LBA span (the fill phase
    writes ``span`` pages in LBA order, so program index *i* is LBA
    *i − 1*): the hot phases never re-read those pages, which is
    exactly the corruption only a patrol scrub can catch.
    """
    if span < 16:
        raise ValueError("span must be at least 16 LBAs")
    return LatentErrorConfig(
        seed=seed,
        read_disturb_per_read=0.05,
        retention_rate=5e-4,
        wear_factor=0.05,
        silent_corruption_rate=2e-3,
        plan=tuple(
            ScriptedFault(op=OP_SILENT, op_index=span // 2 + k * span // 8)
            for k in (1, 2, 3)
        ),
        correctable_threshold=1.0,
        soft_retry_threshold=2.5,
        uecc_threshold=6.0,
    )


def run_integrity_soak(
    *,
    span: int = 1024,
    phases: int = 6,
    commands_per_phase: int = 160,
    fdp: bool = True,
    scale: Scale = INTEGRITY_SCALE,
    seed: Optional[int] = None,
    latent: Optional[LatentErrorConfig] = None,
    scrub: bool = True,
    scrub_config: Optional[ScrubConfig] = None,
    verbose: bool = False,
) -> Dict[str, object]:
    """Latent-error soak with shadow-map corruption reconciliation;
    returns its counters as one row.

    The soak first cold-fills ``span`` LBAs (extent writes, steered to
    RUH 1 under FDP), then runs ``phases`` rounds of a 65/35
    write/read mix over the *first half* of the span only (RUH 0) —
    the second half goes cold, ages under retention, and is never
    host-read again.  Every write carries a unique payload token
    mirrored in a host-side shadow map.

    With ``scrub`` enabled the patrol scrubber runs throughout (polled
    on the device's own clock) plus one final synchronous full pass;
    at the end every logical page is reconciled against the shadow:

    * **intact** — device content matches the shadow;
    * **lost-detected** — the device *knows* the page is gone (CRC
      verification poisoned it; reads serve a miss);
    * **undetected** — the device would serve content that differs
      from what the host wrote.  With the scrubber on, the final full
      pass CRC-verifies every page, so this count must be zero; the
      same seed with ``scrub=False`` leaves the scripted cold-half
      corruptions unseen and the count is nonzero.

    :func:`run_integrity_arms` gates on the DLWA ledger balancing
    exactly: ``nand = host + GC migrations + scrub relocations`` — scrub
    refresh traffic is real write amplification and must be visible in
    the reported DLWA.  ``seed`` defaults to
    ``point_seed("integrity_soak", 0)`` per the sweep-seed contract.
    """
    if seed is None:
        seed = point_seed("integrity_soak", 0)
    if phases < 1:
        raise ValueError("phases must be positive")
    if span < 16 or span % 16:
        raise ValueError("span must be a positive multiple of 16")
    geometry = scale.geometry()
    if span > geometry.logical_pages:
        raise ValueError("span exceeds the device's logical capacity")
    if latent is None:
        latent = default_integrity_latent(span)
    if scrub_config is None:
        scrub_config = ScrubConfig(interval_ns=5_000_000)
    device = SimulatedSSD(
        geometry,
        fdp=fdp,
        latent=latent,
        scrub=scrub_config if scrub else None,
    )
    pid_hot = PlacementIdentifier(0, 0) if fdp else None
    pid_cold = PlacementIdentifier(0, 1) if fdp else None

    rng = random.Random(seed)
    shadow: Dict[int, object] = {}
    ops = 0
    pages_written = 0
    pages_read = 0
    token_counter = 0
    now = 0

    def write(lba: int, npages: int, pid) -> None:
        nonlocal now, ops, pages_written, token_counter
        token_counter += 1
        token = ("integrity-soak", token_counter)
        now = device.write(lba, npages, pid, now, payload=token)
        for i in range(npages):
            shadow[lba + i] = token
        ops += 1
        pages_written += npages

    # Cold fill: the whole span, in extents, steered cold.
    for lba in range(0, span, 8):
        write(lba, 8, pid_cold)

    # Hot phases over the first half only; the second half ages.
    hot_span = span // 2
    for phase in range(phases):
        for _ in range(commands_per_phase):
            npages = rng.randrange(1, 9)
            lba = rng.randrange(0, hot_span - npages)
            if rng.random() < 0.65:
                write(lba, npages, pid_hot)
            else:
                ops += 1
                pages_read += npages
                try:
                    _, now = device.read(lba, npages, now)
                except UncorrectableReadError:
                    # Detected at read time; the page is poisoned and
                    # the shadow entry will reconcile as lost-detected.
                    pass
        if verbose:
            print(
                f"phase {phase}: corrected={device.stats.reads_corrected} "
                f"crc_detected={device.stats.crc_detected_corruptions} "
                f"relocated={device.stats.scrub_pages_relocated}"
            )

    if scrub:
        device.run_scrub_pass(now)
    device.check_invariants()

    # Shadow-map reconciliation: classify every page in the span.
    observed = device.read_payload(0, span)
    intact = lost_detected = undetected = 0
    for lba in range(span):
        expect = shadow.get(lba)
        got = observed[lba]
        if got == expect:
            intact += 1
        elif got is None:
            lost_detected += 1
        else:
            undetected += 1

    s = device.stats
    return dict(
        ops=ops,
        pages_written=pages_written,
        pages_read=pages_read,
        scrub_enabled=scrub,
        corruptions_injected=device.latent.corruptions_injected,
        detected_corruptions=s.crc_detected_corruptions,
        undetected_corruptions=undetected,
        pages_intact=intact,
        pages_lost_detected=lost_detected,
        reads_corrected=s.reads_corrected,
        soft_decode_retries=s.soft_decode_retries,
        read_uecc_errors=s.read_uecc_errors,
        scrub_passes=s.scrub_passes,
        scrub_pages_scanned=s.scrub_pages_scanned,
        scrub_pages_relocated=s.scrub_pages_relocated,
        scrub_blocks_retired=s.scrub_blocks_retired,
        host_pages_written=s.host_pages_written,
        gc_pages_migrated=s.gc_pages_migrated,
        nand_pages_written=s.nand_pages_written,
        dlwa=device.dlwa,
    )


def run_integrity_arms(
    *,
    span: int = 1024,
    phases: int = 6,
    commands_per_phase: int = 160,
    seed: Optional[int] = None,
    verbose: bool = False,
) -> SoakResult:
    """The integrity soak: :func:`run_integrity_soak` scrub on vs off.

    Both arms share the seed, so the scrubber is the only difference.
    With it on, zero corruptions go undetected (the final patrol pass
    CRC-verifies every page) and its relocations show up in a DLWA
    ledger that balances; with it off, the scripted cold-half
    corruptions go unseen — the failure mode the scrubber exists to
    fix.  ``python -m repro.bench soak integrity`` runs it.
    """
    if seed is None:
        seed = point_seed("integrity_soak", 0)
    params = dict(span=span, phases=phases, commands_per_phase=commands_per_phase, seed=seed)
    on = run_integrity_soak(scrub=True, verbose=verbose, **params)
    off = run_integrity_soak(scrub=False, verbose=verbose, **params)
    rows = [{"arm": "scrub-on", **on}, {"arm": "scrub-off", **off}]

    def ledger(arm: str, row: Dict[str, object]) -> Gate:
        # Every NAND page program is host traffic, a GC migration, or a
        # scrub refresh: the DLWA ledger must balance exactly.
        parts = row["host_pages_written"] + row["gc_pages_migrated"] + row["scrub_pages_relocated"]
        nand = row["nand_pages_written"]
        return Gate(f"{arm}_ledger_balances", nand == parts, f"nand={nand} host+gc+scrub={parts}")

    return SoakResult(
        soak="integrity",
        params=params,
        columns=(
            "arm", "corruptions_injected", "detected_corruptions", "undetected_corruptions",
            "reads_corrected", "scrub_pages_relocated", "scrub_blocks_retired", "dlwa",
        ),
        rows=rows,
        gates=[
            Gate("scrub_on_zero_undetected", on["undetected_corruptions"] == 0),
            Gate("scrub_on_relocates", on["scrub_pages_relocated"] > 0),
            ledger("scrub_on", on),
            Gate("scrub_off_leaks", off["undetected_corruptions"] > 0),
            ledger("scrub_off", off),
        ],
    )
