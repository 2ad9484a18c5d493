"""Adversarial trace transforms: production traffic, not stationary Zipf.

The ROADMAP's adversarial-workload matrix item: every generator in this
package emits *stationary* streams, while production cache traffic has
diurnal waves, flash crowds, hot-key migration, size drift, and backup
scans ("How to Write to SSDs"'s write-pattern taxonomy).  This module
provides those as **composable trace transforms**:

* each transform is a frozen dataclass whose :meth:`apply` is a *pure
  function* ``Trace -> Trace`` — all randomness comes from a
  ``numpy.random.default_rng(self.seed)`` created inside ``apply``, so
  the output is bit-determined by ``(transform params, input trace)``
  and transforms compose in any order without shared state;
* transforms never mutate their input (arrays are copied before
  editing);
* every transform preserves the total op count **except**
  :class:`ScanInterference`, which injects extra scan ops (the
  documented exception — see ``PRESERVES_OP_COUNT``);
* timing transforms attach an absolute per-op arrival schedule
  (``Trace.arrivals_ns``) that open-loop replay consumes
  (:class:`~repro.bench.driver.ReplayConfig`), bootstrapping a fixed
  ``base_interval_ns`` schedule when the input trace has none;
* :class:`Scenario` composes transforms; :class:`FlashCrowd` also
  labels each measurement window with the share of it the burst
  occupies (:meth:`FlashCrowd.window_label`), so the overload soak can
  attribute measured damage (p99 spikes, miss storms) to it.

Seeds follow the repo's ``point_seed`` contract: callers derive them
from :func:`repro.bench.runner.point_seed` and pass plain ints here.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .distributions import key_uniform, loguniform_sizes
from .trace import OP_GET, Trace

__all__ = [
    "DiurnalWave",
    "FlashCrowd",
    "HotKeyMigration",
    "SizeMixDrift",
    "ScanInterference",
    "Scenario",
    "SCENARIOS",
    "build_scenario",
    "compose",
]


def _gaps(trace: Trace, base_interval_ns: int) -> np.ndarray:
    """Inter-arrival gaps of a trace (float64).

    Bootstraps a fixed-rate schedule when the trace carries none, so a
    timing transform applied to a stationary trace behaves as if the
    trace arrived at ``base_interval_ns``.
    """
    if trace.arrivals_ns is None:
        return np.full(len(trace), float(base_interval_ns))
    gaps = np.empty(len(trace), dtype=np.float64)
    if len(trace):
        gaps[0] = float(trace.arrivals_ns[0])
        gaps[1:] = np.diff(trace.arrivals_ns).astype(np.float64)
    return gaps


def _schedule(gaps: np.ndarray) -> np.ndarray:
    """Cumulative absolute arrivals from gaps (int64, nondecreasing)."""
    return np.maximum(np.cumsum(gaps), 0.0).astype(np.int64)


@dataclasses.dataclass(frozen=True)
class DiurnalWave:
    """Diurnal load wave: sinusoidal arrival-rate modulation.

    The arrival *rate* swings by ``amplitude`` around its base over a
    period of ``period_ops`` requests (rate multiplier
    ``1 + amplitude * sin(2π (i / period_ops + phase))``), the
    day/night load wave every production cache rides.  Op, key, and
    size arrays pass through untouched — this is purely a timing
    transform.
    """

    PRESERVES_OP_COUNT = True

    base_interval_ns: int = 200_000
    period_ops: int = 50_000
    amplitude: float = 0.6
    phase: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_interval_ns <= 0:
            raise ValueError("base_interval_ns must be positive")
        if self.period_ops <= 0:
            raise ValueError("period_ops must be positive")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")

    def _rate(self, i: np.ndarray) -> np.ndarray:
        theta = 2.0 * math.pi * (i / self.period_ops + self.phase)
        return 1.0 + self.amplitude * np.sin(theta)

    def apply(self, trace: Trace) -> Trace:
        n = len(trace)
        gaps = _gaps(trace, self.base_interval_ns)
        rate = self._rate(np.arange(n, dtype=np.float64))
        return Trace(
            trace.ops,
            trace.keys,
            trace.sizes,
            name=f"{trace.name}+diurnal",
            arrivals_ns=_schedule(gaps / rate),
        )


@dataclasses.dataclass(frozen=True)
class FlashCrowd:
    """Flash-crowd burst: sudden mass concentration on fresh hot keys.

    Inside the burst window ``[start_frac, start_frac + duration_frac)``
    of the trace, ``crowd_fraction`` of the ops are redirected onto a
    small set of ``crowd_keys`` previously-unseen keys (concentration
    toward the head, like a viral object set), and the arrival gaps are
    compressed by ``arrival_speedup`` — the load spike and the key
    spike land together, which is what makes flash crowds the
    overload-bench workload: every redirected GET is a cold miss whose
    fill is a flash write.
    """

    PRESERVES_OP_COUNT = True

    start_frac: float = 0.4
    duration_frac: float = 0.2
    crowd_keys: int = 512
    crowd_fraction: float = 0.8
    arrival_speedup: float = 8.0
    base_interval_ns: int = 200_000
    size_range: Tuple[int, int] = (100, 2000)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_frac < 1.0:
            raise ValueError("start_frac must be in [0, 1)")
        if not 0.0 < self.duration_frac <= 1.0 - self.start_frac:
            raise ValueError("duration_frac must fit inside the trace")
        if self.crowd_keys <= 0:
            raise ValueError("crowd_keys must be positive")
        if not 0.0 <= self.crowd_fraction <= 1.0:
            raise ValueError("crowd_fraction must be in [0, 1]")
        if self.arrival_speedup < 1.0:
            raise ValueError("arrival_speedup must be >= 1")

    def _window(self, n: int) -> Tuple[int, int]:
        start = int(n * self.start_frac)
        stop = min(n, start + max(1, int(n * self.duration_frac)))
        return start, stop

    def apply(self, trace: Trace) -> Trace:
        n = len(trace)
        start, stop = self._window(n)
        rng = np.random.default_rng(self.seed)
        keys = trace.keys.copy()
        sizes = trace.sizes.copy()

        span = stop - start
        chosen = rng.random(span) < self.crowd_fraction
        # Fresh keyspace above everything the base trace references —
        # every crowd key is cold on first touch.
        crowd_base = (int(trace.keys.max()) if n else 0) + 1 + int(
            rng.integers(1 << 20)
        )
        # Quadratic concentration: most redirected ops land on the few
        # hottest crowd keys (the viral head), the rest spread out.
        idx = np.floor(
            self.crowd_keys * rng.random(int(chosen.sum())) ** 2
        ).astype(np.int64)
        crowd = crowd_base + idx
        keys[start:stop][chosen] = crowd
        # Deterministic per-key crowd sizes (small objects): a crowd
        # key has one size no matter which op touches it.
        sizes[start:stop][chosen] = loguniform_sizes(
            key_uniform(crowd, salt=0xF1A5), *self.size_range
        )

        gaps = _gaps(trace, self.base_interval_ns)
        gaps[start:stop] /= self.arrival_speedup
        return Trace(
            trace.ops,
            keys,
            sizes,
            name=f"{trace.name}+crowd",
            arrivals_ns=_schedule(gaps),
        )

    def window_label(self, start: int, stop: int, total: int) -> Dict[str, float]:
        b_start, b_stop = self._window(total)
        overlap = max(0, min(stop, b_stop) - max(start, b_start))
        frac = overlap / (stop - start) if stop > start else 0.0
        return {"flash_crowd": frac}


@dataclasses.dataclass(frozen=True)
class HotKeyMigration:
    """Hot-key migration: the popular set drifts between epochs.

    The trace is cut into ``num_epochs`` equal epochs.  The
    ``top_fraction`` most-referenced keys of the whole trace (the hot
    set) are remapped, per epoch, onto a fresh keyspace — epoch 0 keeps
    the original identities, each later epoch gets brand-new hot keys.
    Cold keys are untouched, so the drift hits exactly the objects the
    cache worked hardest to keep resident: every epoch boundary is a
    hot-working-set invalidation and refill.
    """

    PRESERVES_OP_COUNT = True

    num_epochs: int = 4
    top_fraction: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_epochs < 2:
            raise ValueError("num_epochs must be at least 2")
        if not 0.0 < self.top_fraction <= 1.0:
            raise ValueError("top_fraction must be in (0, 1]")

    def apply(self, trace: Trace) -> Trace:
        n = len(trace)
        if n == 0:
            return trace
        rng = np.random.default_rng(self.seed)
        uniq, counts = np.unique(trace.keys, return_counts=True)
        top_k = max(1, int(len(uniq) * self.top_fraction))
        hot = np.sort(uniq[np.argsort(counts)[-top_k:]])

        keys = trace.keys.copy()
        epochs = (np.arange(n, dtype=np.int64) * self.num_epochs) // n
        hot_pos = np.searchsorted(hot, keys)
        hot_pos = np.clip(hot_pos, 0, len(hot) - 1)
        is_hot = hot[hot_pos] == keys

        base = int(uniq.max()) + 1 + int(rng.integers(1 << 20))
        migrate = is_hot & (epochs > 0)
        # Each epoch's hot set is disjoint from every other epoch's and
        # from the base keyspace: rank within the hot set plus an
        # epoch-strided offset.
        keys[migrate] = (
            base + (epochs[migrate] - 1) * top_k + hot_pos[migrate]
        )
        return Trace(
            trace.ops,
            keys,
            trace.sizes,
            name=f"{trace.name}+migrate",
            arrivals_ns=trace.arrivals_ns,
        )


@dataclasses.dataclass(frozen=True)
class SizeMixDrift:
    """Object size-mix drift: sizes ramp geometrically over the trace.

    Op ``i``'s size is scaled by ``end_scale ** (i / (n - 1))`` — a
    slow drift from the original mix to ``end_scale``× (objects growing
    over a deploy cycle, e.g. feed entries accreting attachments).
    This deliberately breaks per-key size stationarity: the *same* key
    is larger later, so LOC regions fill faster and eviction cadence
    shifts under the cache.
    """

    PRESERVES_OP_COUNT = True

    end_scale: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.end_scale <= 0:
            raise ValueError("end_scale must be positive")

    def _scale(self, i: np.ndarray, n: int) -> np.ndarray:
        denom = max(1, n - 1)
        return self.end_scale ** (i / denom)

    def apply(self, trace: Trace) -> Trace:
        n = len(trace)
        if n == 0:
            return trace
        scale = self._scale(np.arange(n, dtype=np.float64), n)
        sizes = np.maximum(
            (trace.sizes.astype(np.float64) * scale).astype(np.int64), 1
        )
        return Trace(
            trace.ops,
            trace.keys,
            sizes,
            name=f"{trace.name}+sizedrift",
            arrivals_ns=trace.arrivals_ns,
        )


@dataclasses.dataclass(frozen=True)
class ScanInterference:
    """Scan/backup interference: sequential sweeps injected into the stream.

    Every ``every_ops`` positions, a run of ``scan_run`` back-to-back
    sequential GETs over a cold scan keyspace is spliced into the op
    stream — a backup or analytics job sweeping the keyspace while
    production traffic runs.  Scan ops arrive at the same instant as
    the request they were spliced in front of (the scan does not slow
    the foreground schedule down; it adds load on top of it).

    **This is the documented op-count exception**: the output trace is
    longer than the input by ``injected_ops(len(input))``
    (``PRESERVES_OP_COUNT = False``).
    """

    PRESERVES_OP_COUNT = False

    every_ops: int = 5_000
    scan_run: int = 256
    scan_size: int = 4_096
    seed: int = 0

    def __post_init__(self) -> None:
        if self.every_ops <= 0:
            raise ValueError("every_ops must be positive")
        if self.scan_run <= 0:
            raise ValueError("scan_run must be positive")
        if self.scan_size <= 0:
            raise ValueError("scan_size must be positive")

    def _positions(self, n: int) -> np.ndarray:
        return np.arange(self.every_ops, n, self.every_ops, dtype=np.int64)

    def injected_ops(self, n: int) -> int:
        """How many scan ops :meth:`apply` adds to an ``n``-op trace."""
        return len(self._positions(n)) * self.scan_run

    def apply(self, trace: Trace) -> Trace:
        n = len(trace)
        pos = self._positions(n)
        if len(pos) == 0:
            return trace
        rng = np.random.default_rng(self.seed)
        scan_base = (int(trace.keys.max()) if n else 0) + 1 + int(
            rng.integers(1 << 20)
        )
        total_scan = len(pos) * self.scan_run
        # One continuous sweep across all runs: the scan pointer keeps
        # advancing, never re-reading (a full-keyspace backup pass).
        scan_keys = scan_base + np.arange(total_scan, dtype=np.int64)

        insert_at = np.repeat(pos, self.scan_run)
        ops = np.insert(trace.ops, insert_at, np.uint8(OP_GET))
        keys = np.insert(trace.keys, insert_at, scan_keys)
        sizes = np.insert(
            trace.sizes, insert_at, np.int64(self.scan_size)
        )
        arrivals = trace.arrivals_ns
        if arrivals is not None:
            arrivals = np.insert(arrivals, insert_at, arrivals[pos].repeat(
                self.scan_run
            ))
        return Trace(
            ops,
            keys,
            sizes,
            name=f"{trace.name}+scan",
            arrivals_ns=arrivals,
        )


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A named composition of adversarial transforms.

    ``apply`` folds the transforms left to right; determinism is
    inherited (each transform is pure, so the composition is a pure
    function of the transform tuple and the base trace).
    """

    name: str
    transforms: Tuple = ()

    def apply(self, trace: Trace) -> Trace:
        out = trace
        for t in self.transforms:
            out = t.apply(out)
        return out

    @property
    def preserves_op_count(self) -> bool:
        return all(t.PRESERVES_OP_COUNT for t in self.transforms)

def compose(trace: Trace, transforms: Iterable, name: Optional[str] = None) -> Trace:
    """Apply ``transforms`` left to right (function-style composition)."""
    out = Scenario(name or trace.name, tuple(transforms)).apply(trace)
    return out


# ----------------------------------------------------------------------
# the scenario matrix
# ----------------------------------------------------------------------

#: Names :func:`build_scenario` accepts — the rows of the overload
#: bench's scenario × FDP regression matrix.
SCENARIOS = (
    "benign",
    "diurnal",
    "flashcrowd",
    "hotshift",
    "sizedrift",
    "scan",
)


def build_scenario(
    name: str, *, seed: int = 0, base_interval_ns: int = 200_000
) -> Scenario:
    """One named row of the adversarial scenario matrix.

    Every scenario attaches an arrival schedule (so the whole matrix
    replays open loop at a matched base rate and p99 figures are
    comparable across rows); ``benign`` is the control row — fixed-rate
    arrivals, traffic untouched (a zero-amplitude wave).  Sub-transform
    seeds derive from ``seed`` so one int pins the entire row, per the
    ``point_seed`` contract.
    """
    steady = DiurnalWave(
        base_interval_ns=base_interval_ns, amplitude=0.0, seed=seed
    )
    if name == "benign":
        return Scenario("benign", (steady,))
    if name == "diurnal":
        return Scenario(
            "diurnal",
            (
                DiurnalWave(
                    base_interval_ns=base_interval_ns,
                    amplitude=0.6,
                    seed=seed,
                ),
            ),
        )
    if name == "flashcrowd":
        return Scenario(
            "flashcrowd",
            (
                FlashCrowd(
                    base_interval_ns=base_interval_ns,
                    arrival_speedup=4.0,
                    seed=seed,
                ),
            ),
        )
    if name == "hotshift":
        return Scenario(
            "hotshift", (steady, HotKeyMigration(seed=seed + 1))
        )
    if name == "sizedrift":
        return Scenario("sizedrift", (steady, SizeMixDrift(seed=seed + 2)))
    if name == "scan":
        return Scenario(
            "scan", (steady, ScanInterference(seed=seed + 3))
        )
    raise ValueError(
        f"unknown scenario {name!r}; choose from {SCENARIOS}"
    )
