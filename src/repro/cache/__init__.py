"""CacheLib-style hybrid cache: DRAM LRU front, set-associative Small
Object Cache, and log-structured Large Object Cache over the simulated
FDP SSD."""

from .admission import (
    AcceptAll,
    AdmissionPolicy,
    DynamicRandomAdmission,
    SizeThresholdAdmission,
    SurvivalAdmission,
    SurvivalFeatures,
)
from .bloom import BloomFilter
from .config import CacheConfig
from .dram import DramCache
from .hybrid import HIT_DRAM, HIT_LOC, HIT_SOC, MISS, GetResult, HybridCache
from .item import CacheItem
from .kangaroo import KangarooCache
from .loc import LargeObjectCache, Region
from .nemo import NemoCache
from .soc import SmallObjectCache

__all__ = [
    "AdmissionPolicy",
    "AcceptAll",
    "DynamicRandomAdmission",
    "SizeThresholdAdmission",
    "SurvivalAdmission",
    "SurvivalFeatures",
    "NemoCache",
    "BloomFilter",
    "CacheConfig",
    "CacheItem",
    "DramCache",
    "HybridCache",
    "KangarooCache",
    "GetResult",
    "HIT_DRAM",
    "HIT_SOC",
    "HIT_LOC",
    "MISS",
    "LargeObjectCache",
    "Region",
    "SmallObjectCache",
]
