"""One cache shard: a device + cache pair behind a uniform fleet API.

A shard owns exactly one backing store and exposes the key/value
surface the router speaks (``get`` / ``set`` / ``delete`` plus
introspection), a lifecycle state machine, and the fleet error
taxonomy: every device-unavailability exception is translated into
:class:`~repro.fleet.errors.ShardUnavailableError` tagged with the
shard id, so device exceptions never leak through fleet APIs.

Two backends hide heterogeneous device generations behind the same
interface ("How to Write to SSDs"'s device mix):

* ``fdp`` — :class:`~repro.cache.hybrid.HybridCache` over an
  FDP-enabled :class:`~repro.ssd.device.SimulatedSSD`;
* ``nonfdp`` — the same hybrid cache with placement off (mixed
  superblocks, the paper's baseline).

Lifecycle: ``HEALTHY → DEGRADED → RETIRING → DEAD``.  HEALTHY/DEGRADED
shards serve traffic (DEGRADED is a health-monitor warning state);
RETIRING shards serve reads while the router drains their contents to
survivors; DEAD shards raise :class:`ShardUnavailableError` on every
operation and their device is powered off.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from ..bench.runner import DEFAULT_SCALE, build_experiment
from ..cache.hybrid import (
    BROWNOUT_HEALTHY,
    BROWNOUT_SHED_LOC,
    MISS,
    HybridCache,
)
from ..ssd.errors import QueueFullError
from .errors import (
    SHARD_UNAVAILABLE_CAUSES,
    ShardUnavailableError,
    SlowShardError,
)
from .governor import GovernorState, LoadGovernor, OverloadSignals

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..bench.runner import Scale
    from ..faults.failslow import FailSlowConfig
    from ..faults.model import FaultConfig, HealthLogPage
    from ..ssd.sched import LatencyHistogram

__all__ = ["ShardState", "ShardSpec", "CacheShard", "BACKENDS"]

BACKENDS = ("fdp", "nonfdp")


class ShardState(enum.Enum):
    HEALTHY = "healthy"
    DEGRADED = "degraded"
    RETIRING = "retiring"
    DEAD = "dead"


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """Frozen recipe for one shard.

    The fleet soaks declare their shards as specs
    (:func:`repro.bench.fleet.default_fleet_specs`, varied with
    :func:`dataclasses.replace`) and build each one via :meth:`build`.
    """

    shard_id: str
    backend: str = "fdp"
    utilization: float = 0.9
    scale: Optional["Scale"] = None
    faults: Optional["FaultConfig"] = None
    sched: bool = True
    failslow: Optional["FailSlowConfig"] = None
    #: Seed threaded into the cache's ``AdmissionPolicy.reseed`` at
    #: build time (the same contract ``run_experiment`` honours).
    #: ``None`` keeps whatever seed the policy was constructed with —
    #: fine for the deterministic default policy, but any randomized
    #: admission needs this set for fleet runs to replay.
    admission_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if not self.shard_id:
            raise ValueError("shard_id must be non-empty")
        if self.failslow is not None and not self.sched:
            raise ValueError(
                "failslow rides the scheduler overlay: it needs sched=True"
            )

    def build(self) -> "CacheShard":
        scale = self.scale or DEFAULT_SCALE
        cache = build_experiment(
            fdp=self.backend == "fdp",
            utilization=self.utilization,
            scale=scale,
            device_overrides=dict(
                faults=self.faults, sched=self.sched or None, failslow=self.failslow
            ),
            admission_seed=self.admission_seed,
        )
        return CacheShard(self.shard_id, _HybridBackend(cache), self)


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------


class _HybridBackend:
    """HybridCache-backed shard storage (FDP or non-FDP)."""

    kind = "hybrid"

    def __init__(self, cache: HybridCache) -> None:
        self.cache = cache

    def get(self, key: int, now_ns: int) -> Tuple[bool, str, int]:
        where, _, done = self.cache.get_where(key, now_ns)
        return where != MISS, where, done

    def set(self, key: int, size: int, now_ns: int) -> int:
        return self.cache.set(key, size, now_ns)

    def delete(self, key: int, now_ns: int) -> int:
        return self.cache.delete(key, now_ns)

    def contains(self, key: int) -> bool:
        return self.cache.contains(key)

    def resident_items(self) -> Dict[int, int]:
        return self.cache.resident_items()

    def health(self) -> Optional["HealthLogPage"]:
        return self.cache.device.get_health_log()

    def busy_until(self) -> Optional[int]:
        return self.cache.device.ftl.latency.busy_until

    def overload_signals(self, now_ns: int) -> OverloadSignals:
        backlog = max(0, self.cache.device.ftl.latency.busy_until - now_ns)
        sched = self.cache.device.scheduler
        if sched is None:
            return OverloadSignals(backlog_ns=backlog)
        return OverloadSignals(
            backlog_ns=backlog,
            gc_backlog_ns=sched.gc_backlog_ns(),
        )

    def set_brownout_mode(self, mode: str) -> None:
        self.cache.set_brownout_mode(mode)

    @property
    def shed_loc_admissions(self) -> int:
        return self.cache.shed_loc_admissions

    def power_off(self, now_ns: int) -> None:
        if not self.cache.device.powered_off:
            self.cache.device.power_cut(None)

    def merged_histogram(self, op: str) -> Optional["LatencyHistogram"]:
        sched = self.cache.device.scheduler
        return None if sched is None else sched.merged_histogram(op)

    def clear_histograms(self) -> None:
        sched = self.cache.device.scheduler
        if sched is not None:
            sched.clear_histograms()

    def failslow_status(self) -> Optional[dict]:
        model = self.cache.device.failslow
        return None if model is None else model.status_dict()

    def page_counters(self) -> Tuple[int, int]:
        s = self.cache.device.stats
        return s.host_pages_written, s.nand_pages_written

    @property
    def dlwa(self) -> float:
        return self.cache.device.dlwa

    def energy_kwh(self) -> float:
        return self.cache.device.energy_kwh()

    @property
    def capacity_bytes(self) -> int:
        return self.cache.device.capacity_bytes

    def stats_dict(self) -> dict:
        return self.cache.stats_dict()


# ----------------------------------------------------------------------
# the shard
# ----------------------------------------------------------------------


class CacheShard:
    """Lifecycle + error-taxonomy wrapper around one backend.

    Owns the shard-local simulated timeline (``clock_ns``): shards are
    independent devices, so each advances its own closed-loop clock,
    exactly as one :class:`~repro.bench.driver.CacheBench` would if it
    drove the shard alone — the property the 1-shard differential test
    relies on.
    """

    # Rolling latency-window depth for the gray-failure detector.
    _RECENT_READS = 512

    def __init__(self, shard_id: str, backend, spec: Optional[ShardSpec] = None) -> None:
        self.shard_id = shard_id
        self.backend = backend
        self.spec = spec
        self.state = ShardState.HEALTHY
        self.clock_ns = 0
        self.gets = 0
        self.hits = 0
        self.sets = 0
        self.deletes = 0
        self.errors_translated = 0
        self.deadline_misses = 0
        # Host-observed GET latencies (simulated), the gray-failure
        # detector's always-on signal.  Deadline misses record the
        # censored deadline value so a clamped shard still looks slow.
        self.recent_read_ns: Deque[int] = deque(maxlen=self._RECENT_READS)
        self.died_at_ops: Optional[int] = None
        # Per-queue QueueFullError rejections seen at this boundary.
        self.queue_rejections: Dict[str, int] = {}
        # Optional overload governor (attached by the router or
        # directly); None means the pre-governor code path, exactly.
        self.governor: Optional[LoadGovernor] = None

    # -- overload governance --------------------------------------------

    def attach_governor(self, governor: LoadGovernor) -> None:
        self.governor = governor

    def sense_and_govern(self, now_ns: Optional[int] = None) -> None:
        """One sensing tick: feed the governor, drive brownout mode.

        Called by the router at op boundaries, with the op's arrival
        time under open-loop replay (``None`` falls back to the shard
        clock — under closed loop the two coincide).  Without a
        governor (or on a DEAD shard) this is a no-op; with one, a
        state change flips the backend's brownout mode (BROWNOUT and
        SHED both shed LOC admissions — SHED additionally drops whole
        SETs, which the router enforces via :meth:`admit_set`).
        """
        gov = self.governor
        if gov is None or self.state is ShardState.DEAD:
            return
        now = self.clock_ns if now_ns is None else now_ns
        if gov.observe(now, self.backend.overload_signals(now)):
            self.backend.set_brownout_mode(
                BROWNOUT_HEALTHY
                if gov.state is GovernorState.HEALTHY
                else BROWNOUT_SHED_LOC
            )

    def admit_set(self, now_ns: Optional[int] = None) -> bool:
        """Governor write-admission gate (True when no governor)."""
        gov = self.governor
        if gov is None:
            return True
        return gov.admit_set(self.clock_ns if now_ns is None else now_ns)

    def allow_retry(self) -> bool:
        """Governor retry-budget gate (True when no governor)."""
        gov = self.governor
        return gov is None or gov.allow_retry()

    # -- error taxonomy -------------------------------------------------

    def _dead(self, op: str) -> ShardUnavailableError:
        return ShardUnavailableError(
            f"shard {self.shard_id!r} is DEAD ({op})",
            shard_id=self.shard_id,
            op=op,
        )

    def _translate(self, op: str, exc: BaseException) -> ShardUnavailableError:
        self.errors_translated += 1
        queue, depth = "", 0
        if isinstance(exc, QueueFullError):
            # Carry the saturated queue through the translation and
            # keep per-queue rejection tallies for fleet stats.
            queue, depth = exc.queue, exc.depth
            self.queue_rejections[queue] = (
                self.queue_rejections.get(queue, 0) + 1
            )
        return ShardUnavailableError(
            f"shard {self.shard_id!r} {op} failed: "
            f"{type(exc).__name__}: {exc}",
            shard_id=self.shard_id,
            op=op,
            cause=exc,
            queue=queue,
            queue_depth=depth,
        )

    # -- data path ------------------------------------------------------

    def get(
        self,
        key: int,
        now_ns: Optional[int] = None,
        *,
        deadline_ns: Optional[int] = None,
    ) -> Tuple[bool, str, int]:
        """Look up a key; returns ``(hit, where, completion_ns)``.

        With ``deadline_ns`` set, a GET whose simulated completion lands
        more than the deadline past its arrival raises
        :class:`SlowShardError` instead: the host stops waiting at the
        deadline (the shard clock advances exactly that far — the
        device's own busy horizon is untouched, the read still finishes
        late on the media) and the caller books a ``deadline_miss``.
        """
        if self.state is ShardState.DEAD:
            raise self._dead("get")
        now = self.clock_ns if now_ns is None else now_ns
        self.gets += 1
        try:
            hit, where, done = self.backend.get(key, now)
        except SHARD_UNAVAILABLE_CAUSES as exc:
            raise self._translate("get", exc) from exc
        latency = done - now
        if deadline_ns is not None and latency > deadline_ns:
            self.deadline_misses += 1
            self.recent_read_ns.append(deadline_ns)
            self.clock_ns = now + deadline_ns
            raise SlowShardError(
                f"shard {self.shard_id!r} get exceeded deadline "
                f"({latency} ns > {deadline_ns} ns)",
                shard_id=self.shard_id,
                deadline_ns=deadline_ns,
                latency_ns=latency,
            )
        self.recent_read_ns.append(latency)
        if hit:
            self.hits += 1
        self.clock_ns = done
        return hit, where, done

    def set(self, key: int, size: int, now_ns: Optional[int] = None) -> int:
        """Insert/overwrite a key; returns the completion time."""
        if self.state is ShardState.DEAD:
            raise self._dead("set")
        now = self.clock_ns if now_ns is None else now_ns
        try:
            done = self.backend.set(key, size, now)
        except SHARD_UNAVAILABLE_CAUSES as exc:
            raise self._translate("set", exc) from exc
        self.sets += 1
        self.clock_ns = done
        return done

    def delete(self, key: int, now_ns: Optional[int] = None) -> int:
        if self.state is ShardState.DEAD:
            raise self._dead("delete")
        now = self.clock_ns if now_ns is None else now_ns
        try:
            done = self.backend.delete(key, now)
        except SHARD_UNAVAILABLE_CAUSES as exc:
            raise self._translate("delete", exc) from exc
        self.deletes += 1
        self.clock_ns = done
        return done

    # -- lifecycle ------------------------------------------------------

    def begin_retirement(self) -> None:
        if self.state is ShardState.DEAD:
            raise ShardUnavailableError(
                f"cannot retire DEAD shard {self.shard_id!r}",
                shard_id=self.shard_id,
                op="retire",
            )
        self.state = ShardState.RETIRING

    def mark_degraded(self) -> None:
        if self.state is ShardState.HEALTHY:
            self.state = ShardState.DEGRADED

    def kill(self, *, at_ops: Optional[int] = None) -> None:
        """Hard-fail the shard: device powered off, state DEAD."""
        if self.state is ShardState.DEAD:
            return
        self.state = ShardState.DEAD
        self.died_at_ops = at_ops
        self.backend.power_off(self.clock_ns)

    @property
    def alive(self) -> bool:
        return self.state is not ShardState.DEAD

    # -- introspection --------------------------------------------------

    def contains(self, key: int) -> bool:
        """Non-mutating membership probe (no I/O, no LRU effects)."""
        return self.alive and self.backend.contains(key)

    def resident_items(self) -> Dict[int, int]:
        """key → size of everything this shard currently caches."""
        return {} if not self.alive else self.backend.resident_items()

    def health(self) -> Optional["HealthLogPage"]:
        return None if not self.alive else self.backend.health()

    def busy_until(self) -> Optional[int]:
        return self.backend.busy_until()

    def merged_histogram(self, op: str) -> Optional["LatencyHistogram"]:
        return self.backend.merged_histogram(op)

    def clear_histograms(self) -> None:
        self.backend.clear_histograms()

    def recent_read_p99(self, min_samples: int = 1) -> Optional[int]:
        """Nearest-rank p99 of the rolling GET-latency window.

        ``None`` until the window holds ``min_samples`` observations —
        the detector's guard against judging a shard on a handful of
        reads after a window reset.
        """
        n = len(self.recent_read_ns)
        if n == 0 or n < min_samples:
            return None
        ordered = sorted(self.recent_read_ns)
        rank = max(1, -(-99 * n // 100))  # ceil(0.99 * n)
        return ordered[rank - 1]

    def failslow_status(self) -> Optional[dict]:
        """The backing device's fail-slow overlay status (or ``None``)."""
        return self.backend.failslow_status()

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.gets if self.gets else 0.0

    @property
    def dlwa(self) -> float:
        return self.backend.dlwa

    def page_counters(self) -> Tuple[int, int]:
        """(host_pages_written, nand_pages_written) for fleet DLWA."""
        return self.backend.page_counters()

    def energy_kwh(self) -> float:
        return self.backend.energy_kwh()

    @property
    def capacity_bytes(self) -> int:
        return self.backend.capacity_bytes

    def stats_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "backend": self.backend.kind,
            "state": self.state.value,
            "gets": self.gets,
            "hits": self.hits,
            "sets": self.sets,
            "deletes": self.deletes,
            "hit_ratio": self.hit_ratio,
            "errors_translated": self.errors_translated,
            "deadline_misses": self.deadline_misses,
            "queue_rejections": dict(sorted(self.queue_rejections.items())),
            "dlwa": self.dlwa,
            "clock_ns": self.clock_ns,
            "governor": (
                None
                if self.governor is None
                else {
                    **self.governor.counters(),
                    "shed_loc_admissions": self.backend.shed_loc_admissions,
                }
            ),
            "engine": self.backend.stats_dict(),
        }
