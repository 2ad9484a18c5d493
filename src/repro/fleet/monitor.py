"""Fleet health monitoring: SMART pages drive the shard lifecycle.

:class:`FleetHealthMonitor` is the control loop between PR 1's device
health telemetry and the router's membership operations.  Every
``poll_interval_ops`` fleet operations it reads each live shard's
SMART health page (:class:`~repro.faults.model.HealthLogPage`) and
walks the lifecycle state machine:

* ``HEALTHY → DEGRADED`` when spare capacity falls below
  ``degraded_spare_pct`` or media errors exceed
  :data:`DEGRADED_MEDIA_ERRORS` — a warning state, the shard still
  serves;
* ``DEGRADED → RETIRING → DEAD`` when spare drops below
  ``retire_spare_pct`` or wear passes :data:`RETIRE_PERCENT_USED` — the
  monitor asks the router to *retire* the shard, which drains its
  contents onto survivors before powering it off (planned data
  movement, not data loss).

Scripted failures ride the same loop: a :class:`ShardFailurePlan`
(the :class:`~repro.faults.model.FaultPlan` idiom, op-indexed and
fully deterministic) injects ``kill`` / ``retire`` events at exact op
counts, which is how the fleet soak stages its mid-run shard loss.
Everything is driven by op counts, never wall-clock time.

The monitor also carries the **gray-failure detector**
(``latency_detector=True``): fail-slow hardware passes every SMART
check above, so the detector watches the *tail* instead.  Each poll it
takes every live shard's rolling GET p99
(:meth:`~repro.fleet.shard.CacheShard.recent_read_p99`) and compares
it against the fleet's lower-median p99 — a shard whose tail sits
:data:`GRAY_RATIO` times above its peers for ``gray_streak_polls``
consecutive polls is declared gray-failed and drained out through
:meth:`~repro.fleet.router.FleetCache.quarantine_shard`.  The lower
median keeps the baseline honest when a minority of shards is slow;
``latency_floor_ns`` keeps tiny absolute tails (everything healthy and
fast) from ever tripping the ratio.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

__all__ = [
    "MonitorConfig",
    "ScriptedShardEvent",
    "ShardFailurePlan",
    "FleetHealthMonitor",
]

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .router import FleetCache

#: Media errors past which a healthy shard is marked degraded.
DEGRADED_MEDIA_ERRORS = 50
#: Wear (SMART percent used) at which a shard is retired.
RETIRE_PERCENT_USED = 90.0
#: How many times its peers' lower-median p99 a shard's tail must sit
#: to count as slow.
GRAY_RATIO = 4.0


@dataclasses.dataclass(frozen=True)
class MonitorConfig:
    """Thresholds for the health-driven lifecycle transitions.

    The ``latency_*`` / ``gray_*`` knobs configure the gray-failure
    detector; with ``latency_detector=False`` (the default) the
    monitor is exactly the pre-detector, SMART-only control loop.
    """

    poll_interval_ops: int = 2000
    degraded_spare_pct: float = 70.0
    retire_spare_pct: float = 40.0
    latency_detector: bool = False
    latency_min_samples: int = 64
    latency_floor_ns: int = 1_000_000
    gray_streak_polls: int = 2

    def __post_init__(self) -> None:
        if self.poll_interval_ops < 1:
            raise ValueError("poll_interval_ops must be positive")
        if not 0.0 <= self.retire_spare_pct <= self.degraded_spare_pct:
            raise ValueError(
                "need 0 <= retire_spare_pct <= degraded_spare_pct"
            )
        if self.latency_min_samples < 1:
            raise ValueError("latency_min_samples must be positive")
        if self.latency_floor_ns < 0:
            raise ValueError("latency_floor_ns must be non-negative")
        if self.gray_streak_polls < 1:
            raise ValueError("gray_streak_polls must be positive")


@dataclasses.dataclass(frozen=True)
class ScriptedShardEvent:
    """One deterministic membership event: at ``op_index``, do this."""

    op_index: int
    shard_id: str
    action: str = "kill"  # "kill" (no drain) or "retire" (drained)

    def __post_init__(self) -> None:
        if self.action not in ("kill", "retire"):
            raise ValueError(f"unknown action {self.action!r}")
        if self.op_index < 0:
            raise ValueError("op_index must be non-negative")


class ShardFailurePlan:
    """An op-indexed schedule of scripted shard events (fires once each)."""

    def __init__(self, events: Iterable[ScriptedShardEvent] = ()) -> None:
        self.events: List[ScriptedShardEvent] = sorted(
            events, key=lambda e: (e.op_index, e.shard_id)
        )
        self._next = 0

    def due(self, ops_done: int) -> List[ScriptedShardEvent]:
        """Events whose op_index has been reached and not yet fired."""
        due: List[ScriptedShardEvent] = []
        while (
            self._next < len(self.events)
            and self.events[self._next].op_index <= ops_done
        ):
            due.append(self.events[self._next])
            self._next += 1
        return due

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self.events)


class FleetHealthMonitor:
    """Polls shard health pages and executes lifecycle transitions."""

    def __init__(
        self,
        fleet: "FleetCache",
        config: Optional[MonitorConfig] = None,
        plan: Iterable[ScriptedShardEvent] = (),
    ) -> None:
        self.fleet = fleet
        self.config = config or MonitorConfig()
        self.plan = (
            plan if isinstance(plan, ShardFailurePlan)
            else ShardFailurePlan(plan)
        )
        self.polls = 0
        self.transitions: List[dict] = []
        self._last_poll_ops = 0
        # Gray-failure detector state/counters.
        self.latency_polls = 0
        self.gray_failure_detections = 0
        self.quarantines = 0
        self._slow_streaks: Dict[str, int] = {}
        # Last latency verdict per shard (the nvme tool's view).
        self.latency_verdicts: Dict[str, dict] = {}
        # Let fleet.stats_dict() surface our counters (satellite:
        # observability without reaching into monitor internals).
        fleet.monitor = self

    # ------------------------------------------------------------------

    def _fire_scripted(self, ops_done: int) -> List[dict]:
        fired: List[dict] = []
        for event in self.plan.due(ops_done):
            shard = self.fleet.shards.get(event.shard_id)
            if shard is None or not shard.alive:
                continue  # already gone; the event is moot
            if event.action == "kill":
                record = self.fleet.kill_shard(
                    event.shard_id, reason="scripted"
                )
            else:
                record = self.fleet.retire_shard(
                    event.shard_id, reason="scripted"
                )
            fired.append({**record, "ops_done": ops_done})
        return fired

    def _poll_health(self, ops_done: int) -> List[dict]:
        from .shard import ShardState

        cfg = self.config
        fired: List[dict] = []
        for shard_id in sorted(self.fleet.shards):
            shard = self.fleet.shards[shard_id]
            if not shard.alive:
                continue
            page = shard.health()
            retire = (
                page.available_spare_pct < cfg.retire_spare_pct
                or page.percent_used >= RETIRE_PERCENT_USED
                or not page.healthy
            )
            if retire and shard.state is not ShardState.RETIRING:
                record = self.fleet.retire_shard(shard_id, reason="health")
                fired.append(
                    {
                        **record,
                        "ops_done": ops_done,
                        "spare_pct": page.available_spare_pct,
                        "percent_used": page.percent_used,
                    }
                )
                continue
            degrade = (
                page.available_spare_pct < cfg.degraded_spare_pct
                or page.media_errors > DEGRADED_MEDIA_ERRORS
            )
            if degrade and shard.state is ShardState.HEALTHY:
                shard.mark_degraded()
                fired.append(
                    {
                        "event": "degrade",
                        "shard_id": shard_id,
                        "reason": "health",
                        "ops_done": ops_done,
                        "spare_pct": page.available_spare_pct,
                        "media_errors": page.media_errors,
                    }
                )
        return fired

    def _poll_latency(self, ops_done: int) -> List[dict]:
        """One gray-failure detector pass over the live shards.

        A shard is *slow* when its rolling GET p99 exceeds
        ``max(latency_floor_ns, GRAY_RATIO * fleet lower-median p99)``;
        ``gray_streak_polls`` consecutive slow verdicts fire a
        detection and a quarantine.  Needs at least two
        live shards with full sample windows — a fleet of one has no
        peers to be slower than.
        """
        cfg = self.config
        fired: List[dict] = []
        p99s: Dict[str, int] = {}
        for shard_id in sorted(self.fleet.shards):
            shard = self.fleet.shards[shard_id]
            if not shard.alive:
                self._slow_streaks.pop(shard_id, None)
                continue
            p99 = shard.recent_read_p99(cfg.latency_min_samples)
            if p99 is not None:
                p99s[shard_id] = p99
        if len(p99s) < 2:
            return fired
        ordered = sorted(p99s.values())
        # Lower median: a minority of slow shards cannot drag the
        # baseline up and mask themselves.
        median = ordered[(len(ordered) - 1) // 2]
        threshold = max(cfg.latency_floor_ns, GRAY_RATIO * median)
        for shard_id, p99 in sorted(p99s.items()):
            slow = p99 > threshold
            streak = self._slow_streaks.get(shard_id, 0) + 1 if slow else 0
            self._slow_streaks[shard_id] = streak
            self.latency_verdicts[shard_id] = {
                "p99_ns": p99,
                "fleet_median_ns": median,
                "threshold_ns": threshold,
                "slow": slow,
                "streak": streak,
            }
            if slow and streak == cfg.gray_streak_polls:
                self.gray_failure_detections += 1
                fired.append(
                    {
                        "event": "gray_failure",
                        "shard_id": shard_id,
                        "reason": "latency",
                        "ops_done": ops_done,
                        "p99_ns": p99,
                        "fleet_median_ns": median,
                    }
                )
                record = self.fleet.quarantine_shard(
                    shard_id, reason="gray-failure"
                )
                self.quarantines += 1
                fired.append({**record, "ops_done": ops_done})
        return fired

    # ------------------------------------------------------------------

    def observe(self, ops_done: int) -> List[dict]:
        """Advance the monitor to ``ops_done`` fleet operations.

        Scripted events fire at their exact op index (checked every
        call — precision matters for reproducing the soak's kill
        point); health pages are polled only every
        ``poll_interval_ops`` (they are comparatively expensive and
        drift slowly).  Returns the transitions executed, which are
        also appended to :attr:`transitions`.
        """
        fired = self._fire_scripted(ops_done)
        if ops_done - self._last_poll_ops >= self.config.poll_interval_ops:
            self._last_poll_ops = ops_done
            self.polls += 1
            fired.extend(self._poll_health(ops_done))
            if self.config.latency_detector:
                self.latency_polls += 1
                fired.extend(self._poll_latency(ops_done))
        if fired:
            self.transitions.extend(fired)
        return fired

    def counters(self) -> dict:
        """Monitor observability (surfaced via ``FleetCache.stats_dict``)."""
        return {
            "polls": self.polls,
            "latency_polls": self.latency_polls,
            "transitions": len(self.transitions),
            "gray_failure_detections": self.gray_failure_detections,
            "quarantines": self.quarantines,
            "scripted_exhausted": self.plan.exhausted,
            "latency_verdicts": {
                sid: dict(v) for sid, v in sorted(self.latency_verdicts.items())
            },
        }
