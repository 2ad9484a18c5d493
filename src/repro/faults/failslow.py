"""Fail-slow (gray-failure) fault model: a slowed die, timing only.

Fail-stop faults (:mod:`repro.faults.model`) kill operations outright;
real flash fleets lose far more SLO budget to *fail-slow* hardware — a
die whose timings degrade by an order of magnitude while it still
passes SMART health checks and silently inflates fleet p99.  This
module injects that fault into the scheduler's die-occupancy model as
a *pure timing overlay*:

* :class:`FailSlowConfig` — static per-die latency multipliers, in
  force from t=0.
* :class:`FailSlowModel` — the overlay the scheduler consults when
  timing each command and background segment;
  :meth:`FailSlowModel.slow_die` degrades a die at runtime.  It only
  ever stretches durations; it never touches mapping, journal, or
  stats state, so every simulated *state* byte stays bit-identical to
  a no-fault run (the overlay invariant, pinned by the differential
  tests).  A quiescent model (no multiplier) is a pure pass-through:
  even completion timestamps are unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Tuple

__all__ = ["FailSlowConfig", "FailSlowModel"]


@dataclasses.dataclass(frozen=True)
class FailSlowConfig:
    """Shape of the injected latency degradation.

    ``die_multipliers`` holds ``(die, multiplier)`` pairs (a mapping is
    accepted and coerced): every command and background segment on the
    die's channels takes ``multiplier`` times longer, from t=0.
    """

    die_multipliers: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        pairs = self.die_multipliers
        if isinstance(pairs, Mapping):
            pairs = tuple(sorted(pairs.items()))
        else:
            pairs = tuple((int(d), float(m)) for d, m in pairs)
        object.__setattr__(self, "die_multipliers", pairs)
        for die, mult in pairs:
            if die < 0:
                raise ValueError("die indices must be non-negative")
            if mult < 1.0:
                raise ValueError("die multipliers must be >= 1.0")


class FailSlowModel:
    """Timing overlay the scheduler consults when placing each command.

    One per-channel multiplier table answers "how long does this op on
    this channel really take?": :meth:`bind` fills it from the static
    config, :meth:`slow_die` multiplies into it at runtime, and
    :meth:`adjust` / :meth:`scale_background` read it.  The model keeps
    counters about its answers and never touches FTL, journal, or cache
    state, which is what makes fail-slow injection a provable overlay.
    """

    def __init__(self, config: Optional[FailSlowConfig] = None) -> None:
        self.config = config or FailSlowConfig()
        self.channels = 0
        self.planes_per_die = 1
        self._num_dies = 0
        # channel -> multiplier: the static product, then each
        # slow_die() in call order (absent = 1.0).
        self._mult: Dict[int, float] = {}
        # Telemetry.
        self.slowed_commands = 0
        self.slow_extra_ns = 0
        self.background_slowed = 0
        self.background_extra_ns = 0
        self.activations = 0

    def bind(self, channels: int, planes_per_die: int = 1) -> None:
        """Attach to a scheduler's channel topology and load the static
        die multipliers into the channel table."""
        if channels <= 0 or planes_per_die <= 0:
            raise ValueError("channels and planes_per_die must be positive")
        self.channels = channels
        self.planes_per_die = planes_per_die
        self._num_dies = (channels + planes_per_die - 1) // planes_per_die
        self._mult = {}
        for die, mult in self.config.die_multipliers:
            self._multiply(die, mult)

    def slow_die(self, die: int, multiplier: float) -> None:
        """Degrade one die's channels by ``multiplier`` from now on."""
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not self.channels:
            raise RuntimeError("slow_die before bind(); attach the model first")
        self._multiply(die, multiplier)
        self.activations += 1

    def _multiply(self, die: int, multiplier: float) -> None:
        if die >= self._num_dies:
            raise ValueError(
                f"die {die} out of range (device has {self._num_dies} dies)"
            )
        lo = die * self.planes_per_die
        for ch in range(lo, min(lo + self.planes_per_die, self.channels)):
            self._mult[ch] = self._mult.get(ch, 1.0) * multiplier

    # ------------------------------------------------------------------
    # Overlay queries (the scheduler hot path)

    def adjust(self, channel: int, duration_ns: int) -> int:
        """One host command's duration on ``channel``, stretched by the
        channel's multiplier (unchanged on a healthy channel)."""
        mult = self._mult.get(channel, 1.0)
        if mult > 1.0:
            scaled = int(duration_ns * mult)
            self.slowed_commands += 1
            self.slow_extra_ns += scaled - duration_ns
            return scaled
        return duration_ns

    def scale_background(self, channel: int, duration_ns: int) -> int:
        """One background (GC/scrub/erase) segment's duration: the same
        multiplier as :meth:`adjust`, counted separately."""
        mult = self._mult.get(channel, 1.0)
        if mult > 1.0:
            scaled = int(duration_ns * mult)
            self.background_slowed += 1
            self.background_extra_ns += scaled - duration_ns
            return scaled
        return duration_ns

    def status_dict(self) -> dict:
        """Inspection snapshot for tools and soak reports."""
        return {
            "enabled": bool(self._mult),
            "channels": self.channels,
            "planes_per_die": self.planes_per_die,
            "multipliers": dict(sorted(self._mult.items())),
            "slowed_commands": self.slowed_commands,
            "slow_extra_ns": self.slow_extra_ns,
            "background_slowed": self.background_slowed,
            "background_extra_ns": self.background_extra_ns,
            "activations": self.activations,
        }
