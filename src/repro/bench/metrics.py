"""Run metrics: latency quantiles, interval DLWA series, run results.

The driver collects exactly the quantities the paper reports per
experiment: throughput, overall/DRAM/NVM hit ratios, ALWA, cumulative
and interval DLWA (the latter is what Figures 5/7/8/11 plot), p99
read/write latency, GC activity, and operational energy.  Every
robustness soak reports one :class:`SoakResult`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LatencyReservoir",
    "IntervalPoint",
    "RunResult",
    "Gate",
    "SoakResult",
]


class LatencyReservoir:
    """Bounded latency sample that decimates itself when full.

    Keeps at most ``capacity`` samples; on overflow every second sample
    is dropped and the acceptance stride doubles, so the reservoir
    stays a uniform subsample of the stream — adequate for p50-p99
    estimation over millions of ops without unbounded memory.
    """

    def __init__(self, capacity: int = 131072) -> None:
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.capacity = capacity
        self._samples: List[int] = []
        self._stride = 1
        self._seen = 0

    def add(self, latency_ns: int) -> None:
        self.extend((latency_ns,))

    def extend(self, latencies: Sequence[int]) -> None:
        """Offer a window of the stream, oldest first — the same
        reservoir as offering its samples one by one, at one slice per
        stride in force instead of a call per sample."""
        pos, end = 0, len(latencies)
        while pos < end:
            stride = self._stride
            # The stream's k-th sample (from 1) is kept when k % stride == 0.
            first = pos + (-self._seen - 1) % stride
            room = self.capacity - len(self._samples)
            stop = first + (room - 1) * stride + 1  # past the one that fills it
            self._samples.extend(latencies[first:stop:stride])
            if stop > end:
                self._seen += end - pos
                return
            self._seen += stop - pos
            pos = stop
            self._samples = self._samples[::2]
            self._stride *= 2

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count_seen(self) -> int:
        return self._seen

    def percentile(self, p: float) -> float:
        """Latency percentile in nanoseconds (0 when empty)."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.array(self._samples), p))

    def p99_us(self) -> float:
        return self.percentile(99.0) / 1000.0

    def p50_us(self) -> float:
        return self.percentile(50.0) / 1000.0


@dataclasses.dataclass(frozen=True)
class IntervalPoint:
    """One DLWA poll (the paper polls every 10 minutes via nvme-cli)."""

    ops: int
    host_gib_written: float
    interval_dlwa: float
    cumulative_dlwa: float


@dataclasses.dataclass
class RunResult:
    """Everything one experiment arm produced."""

    name: str
    fdp: bool
    ops: int
    sim_seconds: float
    # cache metrics
    hit_ratio: float
    dram_hit_ratio: float
    nvm_hit_ratio: float
    alwa: float
    # device metrics
    dlwa: float
    steady_dlwa: float
    interval_series: List[IntervalPoint]
    gc_relocation_events: int
    gc_relocated_pages: int
    gc_victims: int
    host_pages_written: int
    nand_pages_written: int
    energy_kwh: float
    # latency metrics (microseconds)
    p50_read_us: float
    p99_read_us: float
    p50_write_us: float
    p99_write_us: float
    # fault/degradation metrics (all zero on a fault-free device;
    # appended with defaults so positional constructions stay valid)
    media_errors: int = 0
    read_errors: int = 0
    write_errors: int = 0
    write_drops: int = 0
    io_retries: int = 0
    retired_superblocks: int = 0
    available_spare_pct: float = 100.0
    # admission metrics (defaulted for positional constructions; the
    # policy-vs-placement ablation reads these off sweep results)
    flash_admits: int = 0
    flash_rejects: int = 0
    flash_admit_ratio: float = 1.0

    @property
    def throughput_kops(self) -> float:
        """Simulated throughput in thousands of ops per second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.ops / self.sim_seconds / 1000.0

    def summary_row(self) -> str:
        """One printable row, paper-style."""
        return (
            f"{self.name:<28} fdp={str(self.fdp):<5} "
            f"DLWA={self.dlwa:5.2f} (steady {self.steady_dlwa:5.2f}) "
            f"hit={self.hit_ratio * 100:5.1f}% nvm_hit={self.nvm_hit_ratio * 100:5.1f}% "
            f"ALWA={self.alwa:4.2f} kops={self.throughput_kops:7.1f} "
            f"p99r={self.p99_read_us:7.0f}us p99w={self.p99_write_us:7.0f}us "
            f"GCreloc={self.gc_relocation_events}"
        )


@dataclasses.dataclass(frozen=True)
class Gate:
    """One acceptance criterion of a soak and the numbers it judged."""

    name: str
    passed: bool
    detail: str = ""


@dataclasses.dataclass(frozen=True)
class SoakResult:
    """Verdict of one soak: arms × windows as rows, gates over them.

    Every soak replays one seeded workload through arms that differ in
    one factor and compares them over measurement windows; this is the
    one shape all of them report.  ``rows`` holds one dict per arm,
    window or matrix cell, named by its ``columns[0]`` value;
    ``columns`` are the keys :meth:`table` prints, in order (a row may
    carry more).  ``params`` are the inputs that shaped the run,
    ``evidence`` what was measured outside the rows (audits, reaction
    counters, reports).  The soak passes when every gate does.
    """

    soak: str
    params: Dict[str, object]
    columns: Tuple[str, ...]
    rows: List[Dict[str, object]]
    gates: List[Gate]
    evidence: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def acceptance(self) -> bool:
        return all(g.passed for g in self.gates)

    def gate(self, name: str) -> Gate:
        for g in self.gates:
            if g.name == name:
                return g
        raise KeyError(f"{self.soak} soak has no gate {name!r}")

    def row(self, name: str) -> Dict[str, object]:
        key = self.columns[0]
        for r in self.rows:
            if r[key] == name:
                return r
        raise KeyError(f"{self.soak} soak has no {key} {name!r}")

    def to_dict(self) -> Dict[str, object]:
        key = self.columns[0]
        return {
            "soak": self.soak,
            "params": dict(self.params),
            "rows": {r[key]: {k: v for k, v in r.items() if k != key} for r in self.rows},
            "gates": {g.name: {"passed": g.passed, "detail": g.detail} for g in self.gates},
            "evidence": dict(self.evidence),
            "acceptance": self.acceptance,
        }

    def table(self) -> str:
        """Parameters, the rows as a table with each column as wide as
        its widest cell, scalar evidence, then one line per gate."""
        cells = [list(self.columns)]
        cells += [[format_value(r[c]) for c in self.columns] for r in self.rows]
        widths = [max(map(len, column)) for column in zip(*cells)]
        params = (f"{k}={format_value(v)}" for k, v in self.params.items())
        lines = [" ".join([self.soak, *params])]
        for first, *rest in cells:
            # The name column reads left to right, numbers right-aligned.
            padded = [c.rjust(w) for c, w in zip(rest, widths[1:])]
            lines.append("  ".join([first.ljust(widths[0]), *padded]))
        gate_width = max((len(g.name) for g in self.gates), default=0)
        evidence = self.evidence.items()
        lines += [f"{k}: {format_value(v)}" for k, v in evidence if not isinstance(v, (dict, list))]
        lines += [
            f"{'PASS' if g.passed else 'FAIL'}  {g.name:<{gate_width}}  {g.detail}".rstrip()
            for g in self.gates
        ]
        lines.append(f"acceptance: {'PASS' if self.acceptance else 'FAIL'}")
        return "\n".join(lines)


def format_value(value: object) -> str:
    """A table cell: floats to three decimals (or three digits when tiny
    or huge), everything else as ``str``."""
    if not isinstance(value, float):
        return str(value)
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.3f}"
    return f"{value:.3g}"


def steady_state_dlwa(series: Sequence[IntervalPoint]) -> Optional[float]:
    """Mean interval DLWA over the last half of the run (post warm-up)."""
    if not series:
        return None
    tail = series[len(series) // 2 :]
    return float(np.mean([p.interval_dlwa for p in tail]))
