"""Fault-injection subsystem for the simulated device stack.

Deterministic, seed-driven injection of NVMe-style media failures —
uncorrectable read errors, program failures, erase failures with
permanent block retirement, and latency spikes — plus the scripted
fault plans and SMART-like health telemetry that make chaos runs
reproducible and debuggable.  See DESIGN.md's "Failure model" section
for how each fault class propagates through the FTL, the device layer,
and the cache engines.
"""

from .errors import (
    DeviceOfflineError,
    MediaError,
    PowerLossError,
    ProgramFailError,
    UncorrectableReadError,
)
from .failslow import FailSlowConfig, FailSlowModel
from .latent import (
    OUTCOME_CLEAN,
    OUTCOME_CORRECTABLE,
    OUTCOME_SOFT_RETRY,
    OUTCOME_UECC,
    LatentErrorConfig,
    LatentErrorModel,
)
from .model import FaultConfig, FaultModel, HealthLogPage
from .plan import (
    OP_ERASE,
    OP_POWER,
    OP_PROGRAM,
    OP_READ,
    OP_SILENT,
    FaultPlan,
    ScriptedFault,
)

__all__ = [
    "FaultConfig",
    "FaultModel",
    "HealthLogPage",
    "FailSlowConfig",
    "FailSlowModel",
    "LatentErrorConfig",
    "LatentErrorModel",
    "OUTCOME_CLEAN",
    "OUTCOME_CORRECTABLE",
    "OUTCOME_SOFT_RETRY",
    "OUTCOME_UECC",
    "FaultPlan",
    "ScriptedFault",
    "OP_READ",
    "OP_PROGRAM",
    "OP_ERASE",
    "OP_POWER",
    "OP_SILENT",
    "MediaError",
    "UncorrectableReadError",
    "ProgramFailError",
    "PowerLossError",
    "DeviceOfflineError",
]
