"""Fleet-scale sharded caching: N single-device stacks as one cluster.

The paper's deployment target is a CacheLib *fleet*, not one SSD.
This package turns the repo's hardened single-device stack into a
fault-tolerant cluster:

* :mod:`repro.fleet.hashring` — consistent-hash placement (virtual
  nodes, deterministic under seed, bounded key movement);
* :mod:`repro.fleet.shard` — one cache+device pair behind a uniform
  shard API with an FDP / non-FDP backend mix and the
  HEALTHY → DEGRADED → RETIRING → DEAD lifecycle;
* :mod:`repro.fleet.router` — :class:`FleetCache`: routing, bounded
  retry, per-shard circuit breakers, degraded (miss-not-error)
  service, retirement drains, shadow-map placement audits;
* :mod:`repro.fleet.monitor` — SMART-health-driven lifecycle control
  plus op-indexed scripted failure plans;
* :mod:`repro.fleet.driver` — trace replay across the fleet, closed or
  open loop, through the router (the fleet's one replay loop);
* :mod:`repro.fleet.errors` — the fleet error taxonomy
  (:class:`ShardUnavailableError` wraps device exceptions with the
  originating shard id).

The shard-loss soak lives in :mod:`repro.bench.fleet`
(``python -m repro.bench soak fleet``).
"""

from .driver import (
    FleetDriver,
    FleetIntervalPoint,
    FleetReplayConfig,
    FleetRunResult,
)
from .errors import (
    SHARD_UNAVAILABLE_CAUSES,
    FleetError,
    ShardUnavailableError,
    SlowShardError,
)
from .governor import GovernorConfig, GovernorState, LoadGovernor, OverloadSignals
from .hashring import ConsistentHashRouter
from .monitor import (
    FleetHealthMonitor,
    MonitorConfig,
    ScriptedShardEvent,
    ShardFailurePlan,
)
from .router import CircuitBreaker, FleetCache, FleetConfig, FleetGetResult, FleetOpResult
from .shard import BACKENDS, CacheShard, ShardSpec, ShardState

__all__ = [
    "BACKENDS",
    "CacheShard",
    "CircuitBreaker",
    "ConsistentHashRouter",
    "FleetCache",
    "FleetConfig",
    "FleetDriver",
    "FleetError",
    "FleetGetResult",
    "FleetHealthMonitor",
    "FleetIntervalPoint",
    "FleetOpResult",
    "FleetReplayConfig",
    "FleetRunResult",
    "GovernorConfig",
    "GovernorState",
    "LoadGovernor",
    "MonitorConfig",
    "OverloadSignals",
    "SHARD_UNAVAILABLE_CAUSES",
    "ScriptedShardEvent",
    "ShardFailurePlan",
    "ShardSpec",
    "ShardState",
    "ShardUnavailableError",
    "SlowShardError",
]
