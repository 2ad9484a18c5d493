"""Fail-slow (gray-failure) fault model: latency-only degradation.

Fail-stop faults (:mod:`repro.faults.model`) kill operations outright;
real flash fleets lose far more SLO budget to *fail-slow* hardware — a
die with degraded timings, firmware that stalls on internal
housekeeping, a channel whose reads creep slower with wear — which
passes SMART health checks while silently inflating fleet p99.  This
module injects exactly that class of fault into the scheduler's
die-occupancy model as a *pure timing overlay*:

* :class:`FailSlowConfig` — seed-driven degradation shape: per-die
  latency multipliers, degraded channels, periodic firmware stall
  windows, wear-correlated read-latency creep, and an optional
  scripted :class:`FailSlowPlan`.
* :class:`ScriptedSlowdown` / :class:`FailSlowPlan` — deterministic
  mid-run onsets ("die 1 becomes 8x slower at t=2ms", "a 5ms firmware
  stall at command 500"), mirroring :class:`~repro.faults.plan.
  FaultPlan` scripting for fail-stop faults.
* :class:`FailSlowModel` — the stateful overlay the scheduler consults
  when timing each command.  It only ever stretches durations and
  pushes start times; it never touches mapping, journal, or stats
  state, so every simulated *state* byte stays bit-identical to a
  no-fault run (the overlay invariant, pinned by the differential
  tests).  A quiescent model (default config, nothing activated) is a
  pure pass-through: even completion timestamps are unchanged.

Seed discipline matches the fail-stop model: all random choices (stall
phase, unpinned die selection) derive from ``(seed << 4) ^ salt`` and
are drawn at :meth:`FailSlowModel.bind` time in a fixed order, so the
fault history is a function of the config alone, never of the
workload.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "FailSlowConfig",
    "FailSlowModel",
    "FailSlowPlan",
    "ScriptedSlowdown",
    "SLOW_DIE",
    "SLOW_STALL",
]

# One RNG stream for all bind-time draws ("SLOW").
_SLOW_SALT = 0x534C4F57

# A die-wide latency multiplier: every command and background segment
# on the die's channels takes ``multiplier`` times longer.
SLOW_DIE = "die_slow"
# A firmware stall window: the whole device stops issuing for
# ``duration_ns`` (commands queue; nothing runs slower afterwards).
SLOW_STALL = "stall"

_VALID_KINDS = (SLOW_DIE, SLOW_STALL)


@dataclasses.dataclass(frozen=True)
class ScriptedSlowdown:
    """One scripted degradation onset.

    Parameters
    ----------
    kind:
        ``"die_slow"`` (a die's timings stretch by ``multiplier``) or
        ``"stall"`` (one device-wide firmware stall window).
    at_ns:
        Activate when simulated time reaches this instant.  Exactly one
        of ``at_ns`` / ``at_command`` must be set.
    at_command:
        Activate at the Nth host command the scheduler times (1-based),
        for workload-positioned onsets independent of absolute time.
    die:
        For ``die_slow``: which die degrades.  ``None`` lets the model
        pick one from the seed stream at bind time.
    multiplier:
        For ``die_slow``: the latency stretch factor (>= 1.0; fail-slow
        only ever slows).
    duration_ns:
        For ``stall``: the stall window length (required).  For
        ``die_slow``: how long the degradation lasts; ``None`` means
        permanent (the common gray-failure shape).
    """

    kind: str = SLOW_DIE
    at_ns: Optional[int] = None
    at_command: Optional[int] = None
    die: Optional[int] = None
    multiplier: float = 4.0
    duration_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"kind must be one of {_VALID_KINDS}, got {self.kind!r}")
        if (self.at_ns is None) == (self.at_command is None):
            raise ValueError("exactly one of at_ns / at_command must be set")
        if self.at_ns is not None and self.at_ns < 0:
            raise ValueError("at_ns must be non-negative")
        if self.at_command is not None and self.at_command < 1:
            raise ValueError("at_command is 1-based")
        if self.kind == SLOW_DIE:
            if self.multiplier < 1.0:
                raise ValueError("multiplier must be >= 1.0 (fail-slow only slows)")
            if self.duration_ns is not None and self.duration_ns <= 0:
                raise ValueError("duration_ns must be positive when bounded")
        else:  # stall
            if self.die is not None:
                raise ValueError("stalls are device-wide; die does not apply")
            if self.duration_ns is None or self.duration_ns <= 0:
                raise ValueError("stall entries need a positive duration_ns")


class FailSlowPlan:
    """Ordered scripted slowdowns, consumed as their triggers come due."""

    def __init__(self, entries: Iterable[ScriptedSlowdown] = ()) -> None:
        self._entries: List[ScriptedSlowdown] = list(entries)
        self._live: List[bool] = [True] * len(self._entries)
        self.activated = 0

    @property
    def pending(self) -> int:
        """Scripted onsets not yet activated."""
        return sum(self._live)

    def due(self, now_ns: int, command_index: int) -> List[Tuple[int, ScriptedSlowdown]]:
        """Consume and return every entry whose trigger has passed."""
        fired: List[Tuple[int, ScriptedSlowdown]] = []
        for i, entry in enumerate(self._entries):
            if not self._live[i]:
                continue
            if entry.at_ns is not None:
                ready = now_ns >= entry.at_ns
            else:
                ready = command_index >= entry.at_command
            if ready:
                self._live[i] = False
                self.activated += 1
                fired.append((i, entry))
        return fired


@dataclasses.dataclass(frozen=True)
class FailSlowConfig:
    """Shape of the injected latency degradation.

    Parameters
    ----------
    seed:
        Master seed for bind-time draws (stall phase, unpinned dies).
    die_multipliers:
        ``(die, multiplier)`` pairs (a mapping is accepted and coerced):
        every command and background segment on the die's channels
        takes ``multiplier`` times longer, from t=0.
    degraded_channels:
        Individual channels (plane queues) degraded by
        ``degraded_multiplier`` — the single-bad-channel shape, finer
        than a whole die.
    degraded_multiplier:
        Stretch factor for ``degraded_channels`` (>= 1.0).
    stall_interval_ns:
        Period of recurring firmware stall windows (0 = off).  The
        phase offset within the first period is drawn from the seed.
    stall_duration_ns:
        Length of each recurring stall window.
    read_creep_ns_per_erase:
        Wear-correlated read creep: each completed erase on a die adds
        this many nanoseconds to every later host read on that die's
        channels (0 = off).
    read_creep_cap_ns:
        Upper bound on the accumulated creep per die.
    plan:
        Scripted mid-run onsets, activated as their triggers come due.
    """

    seed: int = 0x51D0
    die_multipliers: Tuple[Tuple[int, float], ...] = ()
    degraded_channels: Tuple[int, ...] = ()
    degraded_multiplier: float = 4.0
    stall_interval_ns: int = 0
    stall_duration_ns: int = 2_000_000
    read_creep_ns_per_erase: int = 0
    read_creep_cap_ns: int = 5_000_000
    plan: Tuple[ScriptedSlowdown, ...] = ()

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
        if not isinstance(self.degraded_channels, tuple):
            object.__setattr__(
                self, "degraded_channels", tuple(self.degraded_channels)
            )
        if any(ch < 0 for ch in self.degraded_channels):
            raise ValueError("channel indices must be non-negative")
        if self.degraded_multiplier < 1.0:
            raise ValueError("degraded_multiplier must be >= 1.0")
        if self.stall_interval_ns < 0:
            raise ValueError("stall_interval_ns must be non-negative")
        if self.stall_interval_ns:
            if self.stall_duration_ns <= 0:
                raise ValueError("stall_duration_ns must be positive")
            if self.stall_duration_ns >= self.stall_interval_ns:
                raise ValueError("stall windows must be shorter than the interval")
        if self.read_creep_ns_per_erase < 0 or self.read_creep_cap_ns < 0:
            raise ValueError("read-creep parameters must be non-negative")
        if not isinstance(self.plan, tuple):
            object.__setattr__(self, "plan", tuple(self.plan))

    @property
    def any_enabled(self) -> bool:
        """Whether this configuration can degrade anything at all."""
        return bool(
            self.die_multipliers
            or self.degraded_channels
            or self.stall_interval_ns
            or self.read_creep_ns_per_erase
            or self.plan
        )


class FailSlowModel:
    """Timing overlay the scheduler consults when placing each command.

    The model answers one question — "given this op on this channel,
    when does it really start and how long does it really take?" — and
    keeps counters about its answers.  It never touches FTL, journal,
    or cache state, and a quiescent model returns its inputs verbatim,
    which is what makes fail-slow injection a provable overlay.
    """

    def __init__(self, config: Optional[FailSlowConfig] = None) -> None:
        self.config = config or FailSlowConfig()
        self.plan = FailSlowPlan(self.config.plan)
        self.channels = 0
        self.planes_per_die = 1
        self._num_dies = 0
        self._stall_phase = 0
        # channel -> static multiplier (from config, fixed at bind).
        self._static: Dict[int, float] = {}
        # channel -> [(multiplier, until_ns-or-None), ...] activated at
        # runtime (scripted onsets or direct slow_die() calls).
        self._dynamic: Dict[int, List[Tuple[float, Optional[int]]]] = {}
        # One-shot stall windows [(start_ns, end_ns), ...].
        self._stall_windows: List[Tuple[int, int]] = []
        # die -> completed erases (drives wear-correlated read creep).
        self._die_erases: Dict[int, int] = {}
        # Scripted entry index -> die resolved from the seed stream.
        self._resolved_die: Dict[int, int] = {}
        # Telemetry.
        self.commands_seen = 0
        self.slowed_commands = 0
        self.slow_extra_ns = 0
        self.stalls_served = 0
        self.stall_ns = 0
        self.creeped_commands = 0
        self.creep_extra_ns = 0
        self.background_slowed = 0
        self.background_extra_ns = 0
        self.activations = 0

    # ------------------------------------------------------------------
    # Binding

    def bind(self, channels: int, planes_per_die: int = 1) -> None:
        """Attach to a scheduler's channel topology.

        All seed draws happen here, in a fixed order (stall phase, then
        one die per unpinned scripted entry), so the fault history
        depends only on the config and topology.  Re-binding is
        idempotent.
        """
        if channels <= 0 or planes_per_die <= 0:
            raise ValueError("channels and planes_per_die must be positive")
        self.channels = channels
        self.planes_per_die = planes_per_die
        self._num_dies = (channels + planes_per_die - 1) // planes_per_die
        rng = random.Random((self.config.seed << 4) ^ _SLOW_SALT)
        if self.config.stall_interval_ns:
            self._stall_phase = rng.randrange(self.config.stall_interval_ns)
        self._resolved_die = {}
        for i, entry in enumerate(self.config.plan):
            if entry.kind != SLOW_DIE:
                continue
            if entry.die is None:
                self._resolved_die[i] = rng.randrange(self._num_dies)
            else:
                if entry.die >= self._num_dies:
                    raise ValueError(
                        f"scripted die {entry.die} out of range "
                        f"(device has {self._num_dies} dies)"
                    )
                self._resolved_die[i] = entry.die
        self._static = {}
        for die, mult in self.config.die_multipliers:
            if die >= self._num_dies:
                raise ValueError(
                    f"die {die} out of range (device has {self._num_dies} dies)"
                )
            for ch in self._die_channels(die):
                self._static[ch] = self._static.get(ch, 1.0) * mult
        for ch in self.config.degraded_channels:
            if ch >= channels:
                raise ValueError(f"channel {ch} out of range ({channels} channels)")
            self._static[ch] = (
                self._static.get(ch, 1.0) * self.config.degraded_multiplier
            )

    def _die_channels(self, die: int) -> range:
        lo = die * self.planes_per_die
        return range(lo, min(lo + self.planes_per_die, self.channels))

    def die_of(self, channel: int) -> int:
        return channel // self.planes_per_die

    # ------------------------------------------------------------------
    # Runtime activation (scripted onsets and direct injection)

    def slow_die(
        self,
        die: int,
        multiplier: float,
        *,
        until_ns: Optional[int] = None,
    ) -> None:
        """Degrade one die's channels by ``multiplier`` from now on."""
        if multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not self.channels:
            raise RuntimeError("slow_die before bind(); attach the model first")
        if die >= self._num_dies:
            raise ValueError(f"die {die} out of range ({self._num_dies} dies)")
        for ch in self._die_channels(die):
            self._dynamic.setdefault(ch, []).append((multiplier, until_ns))
        self.activations += 1

    def stall(self, start_ns: int, duration_ns: int) -> None:
        """Schedule one device-wide firmware stall window."""
        if duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        self._stall_windows.append((start_ns, start_ns + duration_ns))
        self._stall_windows.sort()
        self.activations += 1

    def _maybe_activate(self, now_ns: int) -> None:
        for index, entry in self.plan.due(now_ns, self.commands_seen):
            if entry.kind == SLOW_DIE:
                start = entry.at_ns if entry.at_ns is not None else now_ns
                until = (
                    None
                    if entry.duration_ns is None
                    else start + entry.duration_ns
                )
                self.slow_die(
                    self._resolved_die[index], entry.multiplier, until_ns=until
                )
            else:
                start = entry.at_ns if entry.at_ns is not None else now_ns
                self.stall(start, entry.duration_ns)

    # ------------------------------------------------------------------
    # Overlay queries (the scheduler hot path)

    def _armed(self) -> bool:
        return bool(
            self._static
            or self._dynamic
            or self.config.stall_interval_ns
            or self._stall_windows
            or (self.config.read_creep_ns_per_erase and self._die_erases)
        )

    def adjust(
        self, op: str, channel: int, start_ns: int, duration_ns: int
    ) -> Tuple[int, int]:
        """Overlay one host command's (start, duration) timing.

        Quiescent models return the inputs unchanged; otherwise the
        start is pushed past any stall window and the duration is
        stretched by the channel's active multiplier plus accumulated
        read creep.
        """
        self.commands_seen += 1
        if self.plan.pending:
            self._maybe_activate(start_ns)
        if not self._armed():
            return start_ns, duration_ns
        start = self._push_past_stalls(start_ns)
        if start != start_ns:
            self.stalls_served += 1
            self.stall_ns += start - start_ns
        mult = self._multiplier(channel, start)
        duration = duration_ns
        if mult > 1.0:
            duration = int(duration_ns * mult)
            self.slowed_commands += 1
            self.slow_extra_ns += duration - duration_ns
        if op == "read" and self.config.read_creep_ns_per_erase:
            creep = self._creep(channel)
            if creep:
                duration += creep
                self.creeped_commands += 1
                self.creep_extra_ns += creep
        return start, duration

    def scale_background(
        self, kind: str, channel: int, duration_ns: int, now_ns: int
    ) -> int:
        """Overlay one background (GC/scrub) segment's duration.

        Background work rides the same die-degradation multipliers but
        not stalls (its segments are already queued behind the channel
        horizon, which the stalled host commands push out).
        """
        if self.plan.pending:
            self._maybe_activate(now_ns)
        if not self._armed():
            return duration_ns
        mult = self._multiplier(channel, now_ns)
        if mult > 1.0:
            scaled = int(duration_ns * mult)
            self.background_slowed += 1
            self.background_extra_ns += scaled - duration_ns
            return scaled
        return duration_ns

    def on_erase(self, channel: int, now_ns: int) -> None:
        """Record one completed erase (feeds wear-correlated creep)."""
        die = self.die_of(channel)
        self._die_erases[die] = self._die_erases.get(die, 0) + 1

    # ------------------------------------------------------------------

    def _push_past_stalls(self, start_ns: int) -> int:
        start = start_ns
        for _ in range(4):  # settle chained periodic/scripted windows
            pushed = start
            for begin, end in self._stall_windows:
                if begin <= pushed < end:
                    pushed = end
            interval = self.config.stall_interval_ns
            if interval:
                offset = (pushed - self._stall_phase) % interval
                if offset < self.config.stall_duration_ns:
                    pushed += self.config.stall_duration_ns - offset
            if pushed == start:
                break
            start = pushed
        return start

    def _multiplier(self, channel: int, now_ns: int) -> float:
        mult = self._static.get(channel, 1.0)
        dyn = self._dynamic.get(channel)
        if dyn:
            live = [
                (m, until)
                for m, until in dyn
                if until is None or now_ns < until
            ]
            if len(live) != len(dyn):
                if live:
                    self._dynamic[channel] = live
                else:
                    del self._dynamic[channel]
            for m, _ in live:
                mult *= m
        return mult

    def _creep(self, channel: int) -> int:
        erases = self._die_erases.get(self.die_of(channel), 0)
        if not erases:
            return 0
        return min(
            self.config.read_creep_cap_ns,
            self.config.read_creep_ns_per_erase * erases,
        )

    # ------------------------------------------------------------------

    def status_dict(self) -> dict:
        """Inspection snapshot for tools and soak reports."""
        return {
            "enabled": bool(self.config.any_enabled or self.activations),
            "channels": self.channels,
            "planes_per_die": self.planes_per_die,
            "commands_seen": self.commands_seen,
            "static_multipliers": dict(sorted(self._static.items())),
            "dynamic_multipliers": {
                ch: [[m, until] for m, until in entries]
                for ch, entries in sorted(self._dynamic.items())
            },
            "die_erases": dict(sorted(self._die_erases.items())),
            "slowed_commands": self.slowed_commands,
            "slow_extra_ns": self.slow_extra_ns,
            "stalls_served": self.stalls_served,
            "stall_ns": self.stall_ns,
            "creeped_commands": self.creeped_commands,
            "creep_extra_ns": self.creep_extra_ns,
            "background_slowed": self.background_slowed,
            "background_extra_ns": self.background_extra_ns,
            "activations": self.activations,
            "scripted_activated": self.plan.activated,
            "scripted_pending": self.plan.pending,
        }
