"""Simulated NAND SSD substrate.

A page-mapped FTL with superblock reclaim units, greedy garbage
collection, FDP placement semantics, a busy-clock latency model, and an
operational-energy model.  This package is the stand-in for the
Samsung PM9D3 FDP SSD the paper evaluates on (see DESIGN.md for the
substitution rationale).
"""

from .batch import OP_READ, OP_TRIM, OP_WRITE, BatchCommand, BatchOutcome
from .device import SimulatedSSD
from .energy import EnergyCosts
from .wear import (
    WearStats,
    collect_wear_stats,
    retention_acceleration,
    select_wear_victim,
)
from .zns import Zone, ZonedSSD, ZoneError, ZoneState, ZnsHostLog
from .errors import (
    DeviceFullError,
    DeviceOfflineError,
    InvalidPlacementError,
    MediaError,
    OutOfRangeError,
    PowerLossError,
    ProgramFailError,
    QueueFullError,
    SsdError,
    UncorrectableReadError,
)
from .ftl import Ftl
from .geometry import GIB, KIB, MIB, Geometry
from .latency import LatencyModel, NandTimings
from .recovery import (
    MappingJournal,
    OobRecord,
    PowerCutReport,
    RecoveryReport,
    TornWrite,
    payload_crc,
)
from .sched import (
    IoCompletion,
    LatencyHistogram,
    MultiQueueScheduler,
    SchedConfig,
)
from .scrub import PatrolScrubber, ScrubConfig, ScrubStatus
from .stats import DeviceStats
from .superblock import Superblock, SuperblockState

__all__ = [
    "SimulatedSSD",
    "BatchCommand",
    "BatchOutcome",
    "OP_WRITE",
    "OP_READ",
    "OP_TRIM",
    "WearStats",
    "collect_wear_stats",
    "retention_acceleration",
    "select_wear_victim",
    "ZonedSSD",
    "Zone",
    "ZoneState",
    "ZoneError",
    "ZnsHostLog",
    "Ftl",
    "Geometry",
    "KIB",
    "MIB",
    "GIB",
    "EnergyCosts",
    "LatencyModel",
    "NandTimings",
    "DeviceStats",
    "Superblock",
    "SuperblockState",
    "SsdError",
    "OutOfRangeError",
    "DeviceFullError",
    "InvalidPlacementError",
    "MediaError",
    "UncorrectableReadError",
    "ProgramFailError",
    "PowerLossError",
    "DeviceOfflineError",
    "QueueFullError",
    "OobRecord",
    "MappingJournal",
    "TornWrite",
    "PowerCutReport",
    "RecoveryReport",
    "payload_crc",
    "PatrolScrubber",
    "ScrubConfig",
    "ScrubStatus",
    "SchedConfig",
    "MultiQueueScheduler",
    "LatencyHistogram",
    "IoCompletion",
]
