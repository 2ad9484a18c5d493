"""Pluggable data-placement policies (Design Principle 3, Section 5.5).

The paper's design makes placement decisions pluggable so modules can
experiment; it ships the simple static SOC/LOC segregation and reports
that dynamic alternatives were not worth their complexity (lesson 2).
All of those variants are implemented here so the ablation benches can
measure that claim:

* :class:`StaticSegregationPolicy` — one handle per consumer, assigned
  once at initialization.  The paper's production choice.
* :class:`SingleHandlePolicy` — every consumer shares one handle.  The
  paper uses exactly this to emulate the Non-FDP arm on an FDP device
  for the GC-event comparison (Figure 10b).
* :class:`DynamicTemperaturePolicy` — reassigns consumers to a hot or
  a cold handle from observed write rates, a representative of the
  "load balancing and data temperature techniques" the paper explored
  and shelved.
"""

from __future__ import annotations

import abc
from typing import Dict, List

from .placement import PlacementHandle, PlacementHandleAllocator

__all__ = [
    "PlacementPolicy",
    "StaticSegregationPolicy",
    "SingleHandlePolicy",
    "DynamicTemperaturePolicy",
]


class PlacementPolicy(abc.ABC):
    """Maps consuming modules (SOC/LOC instances) to placement handles.

    A policy that adapts defines ``on_write(consumer, nbytes)``, and the
    cache calls it on every flash admission; static policies have none.
    """

    @abc.abstractmethod
    def setup(
        self, allocator: PlacementHandleAllocator, consumers: List[str]
    ) -> None:
        """Bind handles for ``consumers`` (engine names, e.g. "soc-0")."""

    @abc.abstractmethod
    def handle_for(self, consumer: str) -> PlacementHandle:
        """The handle a consumer should tag its next write with."""

class StaticSegregationPolicy(PlacementPolicy):
    """One placement handle per consumer, fixed for the process lifetime."""

    def __init__(self) -> None:
        self._handles: Dict[str, PlacementHandle] = {}

    def setup(
        self, allocator: PlacementHandleAllocator, consumers: List[str]
    ) -> None:
        for name in consumers:
            self._handles[name] = allocator.allocate(name)

    def handle_for(self, consumer: str) -> PlacementHandle:
        try:
            return self._handles[consumer]
        except KeyError:
            raise KeyError(f"consumer {consumer!r} was not set up") from None


class SingleHandlePolicy(PlacementPolicy):
    """All consumers share a single handle — emulates Non-FDP placement.

    The paper runs its GC-event comparison "with FDP enabled but force
    SOC and LOC to use a single RUH to simulate the Non-FDP scenario";
    this policy is that configuration.
    """

    def __init__(self) -> None:
        self._handle: PlacementHandle | None = None

    def setup(
        self, allocator: PlacementHandleAllocator, consumers: List[str]
    ) -> None:
        self._handle = allocator.allocate("shared")

    def handle_for(self, consumer: str) -> PlacementHandle:
        if self._handle is None:
            raise RuntimeError("policy used before setup()")
        return self._handle


class DynamicTemperaturePolicy(PlacementPolicy):
    """Two-temperature dynamic placement driven by write rates.

    Consumers are periodically re-bucketed: those above the median
    write rate over the last epoch use the *hot* handle, the rest the
    *cold* handle.  This is the style of adaptive policy the paper
    found "outperformed by simple static solutions" — the ablation
    bench quantifies that.
    """

    def __init__(self, epoch_bytes: int = 64 * 1024 * 1024) -> None:
        if epoch_bytes <= 0:
            raise ValueError("epoch_bytes must be positive")
        self.epoch_bytes = epoch_bytes
        self._hot: PlacementHandle | None = None
        self._cold: PlacementHandle | None = None
        self._rates: Dict[str, int] = {}
        self._assignment: Dict[str, PlacementHandle] = {}
        self._since_epoch = 0

    def setup(
        self, allocator: PlacementHandleAllocator, consumers: List[str]
    ) -> None:
        self._hot = allocator.allocate("dynamic-hot")
        self._cold = allocator.allocate("dynamic-cold")
        for name in consumers:
            self._rates[name] = 0
            self._assignment[name] = self._cold

    def on_write(self, consumer: str, nbytes: int) -> None:
        self._rates[consumer] = self._rates.get(consumer, 0) + nbytes
        self._since_epoch += nbytes
        if self._since_epoch >= self.epoch_bytes:
            self._rebucket()

    def _rebucket(self) -> None:
        assert self._hot is not None and self._cold is not None
        self._since_epoch = 0
        if not self._rates:
            return
        rates = sorted(self._rates.values())
        median = rates[(len(rates) - 1) // 2]  # lower median
        for name, rate in self._rates.items():
            self._assignment[name] = self._hot if rate > median else self._cold
            self._rates[name] = 0

    def handle_for(self, consumer: str) -> PlacementHandle:
        try:
            return self._assignment[consumer]
        except KeyError:
            raise KeyError(f"consumer {consumer!r} was not set up") from None
