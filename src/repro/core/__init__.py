"""The paper's primary contribution: FDP-aware data placement for
hybrid flash caches.

Three layers, matching Section 5 of the paper:

* placement handles + allocator (:mod:`repro.core.placement`),
* the FDP-aware device/I-O layer (:mod:`repro.core.device_layer`),
* pluggable placement policies (:mod:`repro.core.policies`).
"""

from .device_layer import FdpAwareDevice
from .placement import DEFAULT_HANDLE, PlacementHandle, PlacementHandleAllocator
from .policies import (
    DynamicTemperaturePolicy,
    PlacementPolicy,
    SingleHandlePolicy,
    StaticSegregationPolicy,
)

__all__ = [
    "FdpAwareDevice",
    "PlacementHandle",
    "PlacementHandleAllocator",
    "DEFAULT_HANDLE",
    "PlacementPolicy",
    "StaticSegregationPolicy",
    "SingleHandlePolicy",
    "DynamicTemperaturePolicy",
]
