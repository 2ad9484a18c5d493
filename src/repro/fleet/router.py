"""The fleet router: consistent-hash placement + graceful degradation.

:class:`FleetCache` is the cluster-facing cache.  Every operation is
routed to the key's ring owner; shard failures are absorbed, never
propagated:

* **bounded retry with backoff** — a
  :class:`~repro.fleet.errors.ShardUnavailableError` is retried up to
  ``max_retries`` times (each retry charges ``retry_backoff_ns`` to
  the shard's timeline, mirroring the device layer's retry model);
* **per-shard circuit breakers** — after ``breaker_failure_threshold``
  consecutive failures the breaker opens and requests to that shard
  fast-fail as *degraded misses* (no device I/O, no exception) until a
  half-open probe after ``breaker_cooldown_ops`` router operations
  succeeds (op-count cooldown keeps the breaker deterministic — no
  wall clock anywhere in the repo);
* **miss-storm accounting** — a miss whose key was owned by a
  killed-without-drain shard is the rebalance paying for lost data;
  those misses are counted separately so the soak can show the storm
  spike and its decay;
* **retirement drain** — ``retire_shard`` removes the shard from the
  ring first (new writes go to survivors), then re-inserts its
  resident items into their new owners and kills it, so a planned
  retirement moves data instead of losing it.

A host-side **shadow map** (key → owning shard of the last
acknowledged write) supports the soak's exactly-once verification:
:meth:`verify_placement` proves no resident key is misplaced (lost to
routing) or resident on two shards (double-applied).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..cache.hybrid import MISS
from ..model.carbon import CarbonParams, total_co2e_kg
from ..ssd.sched import LatencyHistogram
from .errors import ShardUnavailableError, SlowShardError
from .governor import GovernorConfig, LoadGovernor
from .hashring import ConsistentHashRouter
from .shard import CacheShard, ShardState

__all__ = [
    "FleetConfig",
    "FleetGetResult",
    "FleetOpResult",
    "CircuitBreaker",
    "FleetCache",
]


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Router knobs (all deterministic — ops and ns, never wall time).

    ``governor`` switches on per-shard overload protection: every
    shard gets a :class:`~repro.fleet.governor.LoadGovernor` built
    from the given config (brownout/shed write admission + bounded
    retry budget).  ``None`` — the default — is the exact pre-governor
    code path.

    ``deadline_ns`` bounds every GET: a read whose simulated completion
    exceeds the deadline degrades to a counted ``deadline_miss``
    instead of blocking the closed loop on a fail-slow device.
    ``None`` — the default — is the exact pre-deadline code path.
    """

    vnodes: int = 64
    ring_seed: int = 0
    max_retries: int = 2
    retry_backoff_ns: int = 200_000
    breaker_failure_threshold: int = 3
    breaker_cooldown_ops: int = 512
    governor: Optional[GovernorConfig] = None
    deadline_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise ValueError("deadline_ns must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff_ns < 0:
            raise ValueError("retry_backoff_ns must be non-negative")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be positive")
        if self.breaker_cooldown_ops < 1:
            raise ValueError("breaker_cooldown_ops must be positive")


# One result is built per op, so these are plain ``__slots__`` records:
# a frozen dataclass pays ``object.__setattr__`` per field.  The slots
# are spelled out (``dataclass(slots=True)`` needs Python 3.10), which
# rules out field defaults.  They stay classes, not tuples — callers and
# the benchmark's tracer read outcomes by attribute.


@dataclasses.dataclass
class FleetGetResult:
    """Outcome of one fleet GET."""

    __slots__ = (
        "hit", "where", "shard_id", "completion_ns", "degraded",
        "deadline_missed",
    )

    hit: bool
    where: str
    shard_id: Optional[str]
    completion_ns: int
    degraded: bool  # served as a miss because the shard is down
    deadline_missed: bool  # served as a miss: read beat by deadline

    @property
    def miss(self) -> bool:
        return not self.hit


@dataclasses.dataclass
class FleetOpResult:
    """Outcome of one fleet SET/DELETE."""

    __slots__ = ("completion_ns", "shard_id", "applied")

    completion_ns: int
    shard_id: Optional[str]
    applied: bool


_CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """Consecutive-failure breaker with an op-count cooldown."""

    def __init__(self, threshold: int, cooldown_ops: int) -> None:
        self.threshold = threshold
        self.cooldown_ops = cooldown_ops
        self.state = _CLOSED
        self.consecutive_failures = 0
        self.opened_at_ops = 0
        self.opens = 0
        self.fast_fails = 0

    def allow(self, ops_now: int) -> bool:
        """May a request be sent?  (Counts a fast-fail when not.)"""
        if self.state == _CLOSED:
            return True
        if self.state == _OPEN:
            if ops_now - self.opened_at_ops >= self.cooldown_ops:
                self.state = _HALF_OPEN  # let one probe through
                return True
            self.fast_fails += 1
            return False
        return True  # half-open: the probe is in flight

    def record_success(self) -> None:
        self.state = _CLOSED
        self.consecutive_failures = 0

    def record_failure(self, ops_now: int) -> None:
        self.consecutive_failures += 1
        if (
            self.state == _HALF_OPEN
            or self.consecutive_failures >= self.threshold
        ):
            if self.state != _OPEN:
                self.opens += 1
            self.state = _OPEN
            self.opened_at_ops = ops_now


class FleetCache:
    """N cache shards behind consistent-hash routing."""

    def __init__(
        self,
        shards: Sequence[CacheShard],
        config: Optional[FleetConfig] = None,
    ) -> None:
        if not shards:
            raise ValueError("a fleet needs at least one shard")
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {sorted(ids)}")
        self.config = config or FleetConfig()
        self.shards: Dict[str, CacheShard] = {s.shard_id: s for s in shards}
        self.ring = ConsistentHashRouter(
            ids, vnodes=self.config.vnodes, seed=self.config.ring_seed
        )
        # The full ring remembers every shard ever added; routing a key
        # on it answers "whose data would this have been?" for
        # miss-storm attribution after a kill.
        self._full_ring = ConsistentHashRouter(
            ids, vnodes=self.config.vnodes, seed=self.config.ring_seed
        )
        self._storm_shards: set = set()  # killed without drain
        self.breakers: Dict[str, CircuitBreaker] = {
            sid: CircuitBreaker(
                self.config.breaker_failure_threshold,
                self.config.breaker_cooldown_ops,
            )
            for sid in ids
        }
        if self.config.governor is not None:
            for shard in shards:
                shard.attach_governor(LoadGovernor(self.config.governor))
        self.shadow: Dict[int, str] = {}  # key -> owner of last acked SET
        self.events: List[dict] = []  # membership/lifecycle event log
        # Back-reference set by FleetHealthMonitor so stats_dict() can
        # surface detector counters without callers holding the monitor.
        self.monitor = None

        self.ops = 0  # router op counter (breaker clock)
        self.gets = 0
        self.hits = 0
        self.misses = 0
        self.degraded_misses = 0
        self.storm_misses = 0
        self.sets = 0
        self.applied_sets = 0
        self.dropped_sets = 0
        self.deletes = 0
        self.retries = 0
        self.deadline_misses = 0
        self.quarantined_shards = 0
        self.rebalance_moved_items = 0
        self.rebalance_moved_bytes = 0
        self.rebalance_failed_items = 0

    # ------------------------------------------------------------------
    # routing helpers
    # ------------------------------------------------------------------

    def _owner(self, key: int) -> Optional[CacheShard]:
        try:
            owner = self.ring.route(key)
        except KeyError:  # the ring is empty: every shard is gone
            return None
        return self.shards[owner]

    def _note_miss(self, key: int) -> None:
        self.misses += 1
        if self._storm_shards and (
            self._full_ring.route(key) in self._storm_shards
        ):
            self.storm_misses += 1

    def _degraded_get(
        self, key: int, shard: Optional[CacheShard]
    ) -> FleetGetResult:
        """A GET served as a miss because its shard is down or gone."""
        self.degraded_misses += 1
        self._note_miss(key)
        if shard is None:
            return FleetGetResult(False, MISS, None, 0, True, False)
        return FleetGetResult(
            False, MISS, shard.shard_id, shard.clock_ns, True, False
        )

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    #
    # The common op meets no governor and a breaker that is closed with
    # no failure on record, so the data path asks for exactly that
    # before paying for either: ``breaker.consecutive_failures`` is
    # non-zero whenever the breaker is open or half-open (only
    # ``record_failure`` leaves the closed state, and it counts first),
    # and with it zero ``allow`` says yes and ``record_success`` changes
    # nothing.

    def get(self, key: int, now_ns: Optional[int] = None) -> FleetGetResult:
        """Route a GET to the key's owner; degrade failures to misses.

        ``now_ns`` (open-loop replay) pins the op's arrival time on the
        serving shard's timeline; ``None`` keeps the shard's own
        closed-loop clock.  GETs are **never** shed by the governor.
        """
        self.ops += 1
        self.gets += 1
        shard = self._owner(key)
        if shard is None:  # every shard is gone: serve misses, not errors
            return self._degraded_get(key, None)
        if shard.governor is not None:
            shard.sense_and_govern(now_ns)
        breaker = self.breakers[shard.shard_id]
        if breaker.consecutive_failures and not breaker.allow(self.ops):
            return self._degraded_get(key, shard)
        config = self.config
        attempt = 0
        while True:
            try:
                hit, where, done = shard.get(
                    key, now_ns, deadline_ns=config.deadline_ns
                )
            except SlowShardError:
                # The shard answered, too late.  No retry (a retry of a
                # slow read is just a slower read), no breaker failure
                # (availability is fine — containment belongs to the
                # gray-failure detector): the GET degrades to a counted
                # deadline miss and the loop moves on at the deadline.
                self.deadline_misses += 1
                breaker.record_success()
                self._note_miss(key)
                return FleetGetResult(
                    False, MISS, shard.shard_id, shard.clock_ns, False, True
                )
            except ShardUnavailableError:
                breaker.record_failure(self.ops)
                if attempt < config.max_retries and shard.allow_retry():
                    attempt += 1
                    self.retries += 1
                    shard.clock_ns += config.retry_backoff_ns * attempt
                    continue
                return self._degraded_get(key, shard)
            if breaker.consecutive_failures:
                breaker.record_success()
            if hit:
                self.hits += 1
            else:
                self._note_miss(key)
            return FleetGetResult(
                hit, where, shard.shard_id, done, False, False
            )

    def set(
        self, key: int, size: int, now_ns: Optional[int] = None
    ) -> FleetOpResult:
        """Route a SET to the key's owner; degrade failures to drops.

        With a governor attached, the SET must first pass the shard's
        write-admission gate — under brownout/shed, writes are the load
        that gets dropped so reads keep their latency budget.
        """
        self.ops += 1
        self.sets += 1
        shard = self._owner(key)
        if shard is None:
            self.dropped_sets += 1
            return FleetOpResult(0, None, False)
        if shard.governor is not None:
            shard.sense_and_govern(now_ns)
            if not shard.admit_set(now_ns):
                # Shed at the host: no device I/O, no shadow update.
                # The governor counts it (shed_sets); the key simply
                # misses later, which is always safe for a cache.
                return FleetOpResult(shard.clock_ns, shard.shard_id, False)
        breaker = self.breakers[shard.shard_id]
        if breaker.consecutive_failures and not breaker.allow(self.ops):
            self.dropped_sets += 1
            return FleetOpResult(shard.clock_ns, shard.shard_id, False)
        config = self.config
        attempt = 0
        while True:
            try:
                done = shard.set(key, size, now_ns)
            except ShardUnavailableError:
                breaker.record_failure(self.ops)
                if attempt < config.max_retries and shard.allow_retry():
                    attempt += 1
                    self.retries += 1
                    shard.clock_ns += config.retry_backoff_ns * attempt
                    continue
                self.dropped_sets += 1
                return FleetOpResult(shard.clock_ns, shard.shard_id, False)
            if breaker.consecutive_failures:
                breaker.record_success()
            self.applied_sets += 1
            self.shadow[key] = shard.shard_id
            return FleetOpResult(done, shard.shard_id, True)

    def delete(self, key: int, now_ns: Optional[int] = None) -> FleetOpResult:
        self.ops += 1
        self.deletes += 1
        shard = self._owner(key)
        if shard is None:
            return FleetOpResult(0, None, False)
        breaker = self.breakers[shard.shard_id]
        if breaker.consecutive_failures and not breaker.allow(self.ops):
            return FleetOpResult(shard.clock_ns, shard.shard_id, False)
        try:
            done = shard.delete(key, now_ns)
        except ShardUnavailableError:
            breaker.record_failure(self.ops)
            self.shadow.pop(key, None)
            return FleetOpResult(shard.clock_ns, shard.shard_id, False)
        if breaker.consecutive_failures:
            breaker.record_success()
        self.shadow.pop(key, None)
        return FleetOpResult(done, shard.shard_id, True)

    # ------------------------------------------------------------------
    # membership / lifecycle
    # ------------------------------------------------------------------

    def kill_shard(self, shard_id: str, *, reason: str = "scripted") -> dict:
        """Hard shard loss: no drain, its keys become the miss storm."""
        shard = self.shards[shard_id]
        lost = len(shard.resident_items())
        shard.kill(at_ops=self.ops)
        if shard_id in self.ring:
            self.ring.remove_shard(shard_id)
        self._storm_shards.add(shard_id)
        event = {
            "event": "kill",
            "shard_id": shard_id,
            "reason": reason,
            "at_ops": self.ops,
            "items_lost": lost,
            "survivors": len(self.ring),
        }
        self.events.append(event)
        return event

    def retire_shard(self, shard_id: str, *, reason: str = "health") -> dict:
        """Planned retirement: drain resident items onto survivors.

        The shard leaves the ring *before* the drain so every drained
        item lands on its new steady-state owner; the drain itself uses
        the shard's (still readable) resident index, then the shard is
        killed.  Keys whose re-insert fails are counted, not raised.
        """
        shard = self.shards[shard_id]
        shard.begin_retirement()
        if shard_id in self.ring:
            self.ring.remove_shard(shard_id)
        moved = failed = moved_bytes = 0
        if len(self.ring):
            for key, size in sorted(shard.resident_items().items()):
                target = self.shards[self.ring.route(key)]
                try:
                    target.set(key, size)
                except ShardUnavailableError:
                    failed += 1
                    continue
                self.shadow[key] = target.shard_id
                moved += 1
                moved_bytes += size
        shard.kill(at_ops=self.ops)
        self.rebalance_moved_items += moved
        self.rebalance_moved_bytes += moved_bytes
        self.rebalance_failed_items += failed
        event = {
            "event": "retire",
            "shard_id": shard_id,
            "reason": reason,
            "at_ops": self.ops,
            "items_moved": moved,
            "bytes_moved": moved_bytes,
            "items_failed": failed,
            "survivors": len(self.ring),
        }
        self.events.append(event)
        return event

    def quarantine_shard(
        self, shard_id: str, *, reason: str = "gray-failure"
    ) -> dict:
        """Drain a sustained-slow shard out of service.

        The fail-slow containment action: the shard is *healthy* by
        every SMART measure but too slow to keep, so it goes through
        the planned-retirement path (leave the ring, drain resident
        items to survivors, power off) rather than the kill path — its
        data is perfectly readable and moving it avoids a miss storm.
        """
        record = self.retire_shard(shard_id, reason=reason)
        record["event"] = "quarantine"
        self.quarantined_shards += 1
        return record

    def add_shard(self, shard: CacheShard) -> None:
        """Grow the fleet (new keys' arcs move to the new shard)."""
        if shard.shard_id in self.shards:
            raise ValueError(f"shard {shard.shard_id!r} already present")
        self.shards[shard.shard_id] = shard
        self.ring.add_shard(shard.shard_id)
        self._full_ring.add_shard(shard.shard_id)
        self.breakers[shard.shard_id] = CircuitBreaker(
            self.config.breaker_failure_threshold,
            self.config.breaker_cooldown_ops,
        )
        if self.config.governor is not None and shard.governor is None:
            shard.attach_governor(LoadGovernor(self.config.governor))
        self.events.append(
            {"event": "add", "shard_id": shard.shard_id, "at_ops": self.ops}
        )

    # ------------------------------------------------------------------
    # aggregation / verification
    # ------------------------------------------------------------------

    @property
    def live_shards(self) -> List[CacheShard]:
        return [s for s in self.shards.values() if s.alive]

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.gets if self.gets else 0.0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.gets if self.gets else 0.0

    def merged_histogram(self, op: str) -> LatencyHistogram:
        """One histogram merging every live shard's ``op`` latencies."""
        merged = LatencyHistogram()
        for shard in self.live_shards:
            hist = shard.merged_histogram(op)
            if hist is not None:
                merged.merge(hist)
        return merged

    def clear_histograms(self) -> None:
        for shard in self.live_shards:
            shard.clear_histograms()

    def governor_counters(self) -> dict:
        """Fleet-aggregate overload-protection counters.

        Sums every attached governor's shed/transition/retry counters
        plus the cache-level LOC-admission sheds; ``states`` maps each
        governed shard to its current governor state.  All zeros when
        no governor is attached (the control arm's expected shape).
        """
        totals = {
            "shed_sets": 0,
            "shed_loc_admissions": 0,
            "brownout_transitions": 0,
            "retry_budget_exhausted": 0,
        }
        states: Dict[str, str] = {}
        for sid, shard in sorted(self.shards.items()):
            gov = shard.governor
            if gov is None:
                continue
            states[sid] = gov.state.value
            totals["shed_sets"] += gov.shed_sets
            totals["shed_loc_admissions"] += shard.backend.shed_loc_admissions
            totals["brownout_transitions"] += gov.brownout_transitions
            totals["retry_budget_exhausted"] += gov.retry_budget_exhausted
        totals["states"] = states
        return totals

    def queue_rejections(self) -> Dict[str, int]:
        """Per-queue QueueFullError rejections, summed across shards."""
        merged: Dict[str, int] = {}
        for shard in self.shards.values():
            for queue, count in shard.queue_rejections.items():
                merged[queue] = merged.get(queue, 0) + count
        return dict(sorted(merged.items()))

    def fleet_dlwa(self) -> float:
        """Fleet-aggregate DLWA: total NAND over total host pages."""
        host = nand = 0
        for shard in self.shards.values():
            h, n = shard.page_counters()
            host += h
            nand += n
        return nand / host if host else 1.0

    def energy_kwh(self) -> float:
        return sum(s.energy_kwh() for s in self.shards.values())

    def co2e_kg(self, params: Optional[CarbonParams] = None) -> float:
        """Fleet lifecycle carbon (Theorems 2+3 over aggregate DLWA)."""
        capacity = sum(s.capacity_bytes for s in self.shards.values())
        return total_co2e_kg(
            max(1.0, self.fleet_dlwa()),
            capacity,
            self.energy_kwh(),
            params or CarbonParams(),
        )

    def stats_dict(self) -> dict:
        """Fleet-wide observability snapshot (JSON-serializable)."""
        return {
            "shards": {
                sid: s.stats_dict() for sid, s in sorted(self.shards.items())
            },
            "ring": {
                "members": list(self.ring.shard_ids),
                "vnodes": self.config.vnodes,
                "seed": self.config.ring_seed,
            },
            "ops": self.ops,
            "gets": self.gets,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "degraded_misses": self.degraded_misses,
            "storm_misses": self.storm_misses,
            "sets": self.sets,
            "applied_sets": self.applied_sets,
            "dropped_sets": self.dropped_sets,
            "deletes": self.deletes,
            "retries": self.retries,
            "deadline_misses": self.deadline_misses,
            "quarantined_shards": self.quarantined_shards,
            "monitor": (
                None if self.monitor is None else self.monitor.counters()
            ),
            "rebalance": {
                "moved_items": self.rebalance_moved_items,
                "moved_bytes": self.rebalance_moved_bytes,
                "failed_items": self.rebalance_failed_items,
            },
            "governor": self.governor_counters(),
            "queue_rejections": self.queue_rejections(),
            "breakers": {
                sid: {
                    "state": b.state,
                    "opens": b.opens,
                    "fast_fails": b.fast_fails,
                }
                for sid, b in sorted(self.breakers.items())
            },
            "fleet_dlwa": self.fleet_dlwa(),
            "energy_kwh": self.energy_kwh(),
            "co2e_kg": self.co2e_kg(),
            "events": list(self.events),
        }

    def verify_placement(self) -> dict:
        """Exactly-once placement audit across the surviving fleet.

        * **misplaced** — a key resident on a live shard the ring does
          not route to (a lost key: no GET can ever reach it);
        * **duplicates** — a key resident on more than one live shard
          (a double-applied write);
        * **shadow_mismatches** — a key the shadow map says was last
          acknowledged on live shard A but now resides on live shard
          B ≠ A.

        All three must be zero for any sequence of operations, kills,
        and retirements — the soak asserts exactly that.  Eviction is
        *not* a violation: a key may be resident nowhere.
        """
        resident: Dict[int, List[str]] = {}
        misplaced = 0
        for shard in self.live_shards:
            for key in shard.resident_items():
                resident.setdefault(key, []).append(shard.shard_id)
                if (
                    len(self.ring)
                    and self.ring.route(key) != shard.shard_id
                ):
                    misplaced += 1
        duplicates = sum(1 for owners in resident.values() if len(owners) > 1)
        shadow_mismatches = 0
        for key, owner in self.shadow.items():
            holders = resident.get(key)
            if holders is None:
                continue  # evicted or lost with its shard — legal
            if owner in self.shards and self.shards[owner].alive:
                if holders != [owner]:
                    shadow_mismatches += 1
        return {
            "keys_resident": len(resident),
            "misplaced": misplaced,
            "duplicates": duplicates,
            "shadow_mismatches": shadow_mismatches,
        }
