"""Per-shard load governor: host-side admission control under overload.

Flashield's core insight, applied at the fleet layer: when the device
backs up, keep pressure off flash by gating **writes** at the host —
never reads.  The governor watches the overload signals the stack
already emits (device busy-horizon backlog and the scheduler's queued
GC work) and walks a three-state lifecycle:

``HEALTHY → BROWNOUT → SHED`` (and back down, with hysteresis)

* **HEALTHY** — full service.  Observation is read-only and admission
  always passes without consuming anything, so a governor that never
  trips is bit-identical to no governor at all (the differential-arm
  invariant).
* **BROWNOUT** — entered when backlog crosses
  ``brownout_backlog_ns``.  LOC flash admissions are shed at the cache
  (the big sequential writes), and SETs pass through a token bucket
  refilled on *simulated* time — a bounded write rate instead of an
  unbounded queue.
* **SHED** — entered when backlog crosses ``shed_backlog_ns`` despite
  brownout.  All SETs are dropped at the router (a dropped SET is
  always safe for a cache: the key simply misses later); GETs are
  **never** shed in any state — misses are cheap (bloom-side, no flash
  I/O) and hits are the service being protected.

During BROWNOUT/SHED the router's blind retry loop is replaced by a
**bounded retry budget** (``retry_budget`` per ``retry_window_ops``):
retrying into a saturated device is additive load, so overload retries
spend from a shared budget and fail fast once it is gone
(``retry_budget_exhausted`` counts the fast-fails).  In HEALTHY state
retries behave exactly as before.

Transitions require the state to have been held for ``dwell_ops``
observations (hysteresis), and stepping down additionally requires the
backlog below ``recover_backlog_ns`` — so the governor does not flap
across a threshold at every GC burst.

Everything is deterministic: op counts and simulated nanoseconds only,
no wall clock, no randomness.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Optional

__all__ = ["GovernorState", "GovernorConfig", "OverloadSignals", "LoadGovernor"]


class GovernorState(enum.Enum):
    HEALTHY = "healthy"
    BROWNOUT = "brownout"
    SHED = "shed"


_SEVERITY = {
    GovernorState.HEALTHY: 0,
    GovernorState.BROWNOUT: 1,
    GovernorState.SHED: 2,
}


@dataclasses.dataclass(frozen=True)
class OverloadSignals:
    """One read-only sensing sample (all signals optional but backlog)."""

    backlog_ns: int = 0
    gc_backlog_ns: int = 0

    @property
    def pressure_ns(self) -> int:
        """Combined device-time pressure the next op queues behind."""
        return self.backlog_ns + self.gc_backlog_ns


@dataclasses.dataclass(frozen=True)
class GovernorConfig:
    """Governor thresholds (ns of device backlog, op-count dwell).

    Defaults are tuned for the repo's simulated NAND timings: the
    closed-loop drivers cap backlog at 30 ms, so a backlog beyond that
    only occurs under open-loop overload; brownout engages at 60 ms
    (double the benign cap — GC bursts alone stay under it), full shed
    at 200 ms, and recovery requires falling back below 20 ms.
    """

    brownout_backlog_ns: int = 60_000_000
    shed_backlog_ns: int = 200_000_000
    recover_backlog_ns: int = 20_000_000
    dwell_ops: int = 64
    set_tokens_per_ms: float = 2.0
    set_bucket_capacity: float = 32.0
    retry_budget: int = 8
    retry_window_ops: int = 1_024

    def __post_init__(self) -> None:
        if not (
            0
            <= self.recover_backlog_ns
            < self.brownout_backlog_ns
            < self.shed_backlog_ns
        ):
            raise ValueError(
                "need recover < brownout < shed backlog thresholds"
            )
        if self.dwell_ops < 1:
            raise ValueError("dwell_ops must be positive")
        if self.set_tokens_per_ms <= 0:
            raise ValueError("set_tokens_per_ms must be positive")
        if self.set_bucket_capacity < 1:
            raise ValueError("set_bucket_capacity must be at least 1")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        if self.retry_window_ops < 1:
            raise ValueError("retry_window_ops must be positive")


class LoadGovernor:
    """One shard's overload state machine + write-admission gate."""

    def __init__(self, config: Optional[GovernorConfig] = None) -> None:
        self.config = config or GovernorConfig()
        self.state = GovernorState.HEALTHY
        self.ops_observed = 0
        self._state_since_ops = 0
        self._tokens = self.config.set_bucket_capacity
        self._tokens_at_ns = 0
        self._retry_window_start = 0
        self._retries_in_window = 0
        # Counters (merged into fleet stats).
        self.shed_sets = 0
        self.brownout_transitions = 0
        self.retry_budget_exhausted = 0
        self.transitions: list = []  # (ops, from, to) audit trail

    # -- sensing --------------------------------------------------------

    def _target_state(self, signals: OverloadSignals) -> GovernorState:
        cfg = self.config
        pressure = signals.pressure_ns
        if pressure >= cfg.shed_backlog_ns:
            return GovernorState.SHED
        if pressure >= cfg.brownout_backlog_ns:
            return GovernorState.BROWNOUT
        if pressure <= cfg.recover_backlog_ns:
            return GovernorState.HEALTHY
        return self.state  # in the hysteresis band: hold

    def observe(self, now_ns: int, signals: OverloadSignals) -> bool:
        """Feed one sensing sample; returns True if the state changed.

        Escalation (toward SHED) is immediate once dwell is satisfied;
        de-escalation steps down one state at a time so recovery is
        gradual (SHED → BROWNOUT → HEALTHY), never a cliff.
        """
        self.ops_observed += 1
        target = self._target_state(signals)
        if target is self.state:
            return False
        if self.ops_observed - self._state_since_ops < self.config.dwell_ops:
            return False
        if _SEVERITY[target] < _SEVERITY[self.state]:
            # Step down one state per transition.
            target = (
                GovernorState.BROWNOUT
                if self.state is GovernorState.SHED
                else GovernorState.HEALTHY
            )
        self.transitions.append(
            (self.ops_observed, self.state.value, target.value)
        )
        self.state = target
        self._state_since_ops = self.ops_observed
        self.brownout_transitions += 1
        if self.state is not GovernorState.HEALTHY:
            # (Re)arm the token bucket at the moment load shedding
            # starts, full — brownout begins by smoothing, not dropping.
            self._tokens = self.config.set_bucket_capacity
            self._tokens_at_ns = now_ns
        return True

    # -- write admission ------------------------------------------------

    def admit_set(self, now_ns: int) -> bool:
        """May this SET proceed?  (Counts a shed when not.)

        HEALTHY admits unconditionally and touches no state — the
        bit-identity guarantee.  BROWNOUT spends from a token bucket
        refilled on simulated time; SHED admits nothing.
        """
        if self.state is GovernorState.HEALTHY:
            return True
        if self.state is GovernorState.SHED:
            self.shed_sets += 1
            return False
        # BROWNOUT: token bucket on the shard's simulated clock.
        elapsed_ms = max(0, now_ns - self._tokens_at_ns) / 1e6
        self._tokens = min(
            self.config.set_bucket_capacity,
            self._tokens + elapsed_ms * self.config.set_tokens_per_ms,
        )
        self._tokens_at_ns = max(self._tokens_at_ns, now_ns)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        self.shed_sets += 1
        return False

    # -- retry budget ---------------------------------------------------

    def allow_retry(self) -> bool:
        """May the router retry a failed op right now?

        HEALTHY: always (the pre-governor behavior).  Overloaded:
        retries spend a shared per-window budget; once it is gone the
        op fails fast instead of hammering a saturated device.
        """
        if self.state is GovernorState.HEALTHY:
            return True
        if (
            self.ops_observed - self._retry_window_start
            >= self.config.retry_window_ops
        ):
            self._retry_window_start = self.ops_observed
            self._retries_in_window = 0
        if self._retries_in_window < self.config.retry_budget:
            self._retries_in_window += 1
            return True
        self.retry_budget_exhausted += 1
        return False

    # -- introspection --------------------------------------------------

    def counters(self) -> Dict[str, object]:
        return {
            "state": self.state.value,
            "shed_sets": self.shed_sets,
            "brownout_transitions": self.brownout_transitions,
            "retry_budget_exhausted": self.retry_budget_exhausted,
        }
