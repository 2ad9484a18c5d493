"""The fleet soaks' shared measurement: windows on one op timeline.

The shard-loss, flash-crowd and fail-slow soaks each replay one trace
through arms of identical fleets, on one continuous op timeline cut
into ``[warmup][pre][event][drain][recovered]``, and judge windows
against each other.  Histograms are cleared at every boundary, so a
window's p99 is its own, not a run-cumulative one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..fleet import FleetCache, FleetDriver
from ..workloads.trace import Trace
from .metrics import Gate, format_value

__all__ = ["Segment", "layout", "replay_windows", "window_gate", "window_ops"]

#: ``(name, start, stop, measured)`` on the op timeline.
Segment = Tuple[str, int, int, bool]


def window_ops(total: int) -> int:
    """Length of the ``pre`` and ``recovered`` windows of a ``total``-op run."""
    return max(2_000, total // 8)


def layout(total: int, event: str, start: int, stop: Optional[int] = None) -> List[Segment]:
    """The five segments around an event at ops ``[start, stop)``.

    ``stop`` defaults to one window past ``start``.  Raises
    ``ValueError`` unless the warm-up and drain are both non-empty.
    """
    window = window_ops(total)
    if stop is None:
        stop = start + window
    if start - window <= 0 or stop + window >= total:
        raise ValueError(
            f"num_ops={total} too small for window={window} around "
            f"{event} [{start}, {stop})"
        )
    return [
        ("warmup", 0, start - window, False),
        ("pre", start - window, start, True),
        (event, start, stop, True),
        ("drain", stop, total - window, False),
        ("recovered", total - window, total, True),
    ]


def window_gate(
    name: str, rows: List[Dict], a: str, op: str, factor: float, b: str, *, column="read_p99_ns"
) -> Gate:
    """The gate ``a op factor × b`` on one column of two windows.

    ``"<="`` is one-sided (ending *better* than the baseline passes)
    and a zero baseline passes only a zero; ``">="`` is a plain floor.
    """
    by_name = {row["window"]: row for row in rows}
    va, vb = by_name[a][column], by_name[b][column]
    if op == "<=":
        passed = va == 0 if vb == 0 else va <= vb * factor
    else:  # ">="
        passed = va >= vb * factor
    detail = f"{column}: {a} {format_value(va)} {op} {factor:g}x {b} {format_value(vb)}"
    return Gate(name, passed, detail)


_COUNTERS = ("gets", "misses", "storm_misses", "degraded_misses", "deadline_misses")


def _counters(fleet: FleetCache) -> Dict[str, int]:
    counters = {k: getattr(fleet, k) for k in _COUNTERS}
    shed = fleet.governor_counters()
    counters.update((k, shed[k]) for k in ("shed_sets", "shed_loc_admissions"))
    return counters


def replay_windows(
    driver: FleetDriver,
    trace: Trace,
    segments: List[Segment],
    *,
    arm: str = "",
    at_event: Optional[Callable[[], None]] = None,
    label: Optional[Callable[[int, int], Dict[str, float]]] = None,
    verbose: bool = False,
) -> List[Dict[str, object]]:
    """Replay ``segments`` of ``trace`` through ``driver``'s fleet.

    Returns one row per measured window, named ``arm:window`` (or just
    ``window`` without an arm): counter deltas, miss ratio, merged p99
    read latency and live shards at its end.  When the trace carries
    arrivals, a row also records ``max_backlog_ns`` — the worst
    per-shard device backlog at the window's last arrival, the queue
    the next op lands behind — and ``label(start, stop)``'s ground
    truth.  ``at_event`` fires once, just before the event segment.
    """
    fleet = driver.fleet
    event = segments[2][0]
    rows = []
    for name, start, stop, measured in segments:
        if stop <= start:
            continue
        if name == event and at_event is not None:
            at_event()
        window = f"{arm}:{name}" if arm else name
        before = _counters(fleet)
        fleet.clear_histograms()
        driver.run(trace.slice(start, stop), name=window)
        if measured:
            row: Dict[str, object] = {"window": window, "ops": stop - start}
            row.update((k, v - before[k]) for k, v in _counters(fleet).items())
            row["miss_ratio"] = row["misses"] / row["gets"] if row["gets"] else 0.0
            row["read_p99_ns"] = fleet.merged_histogram("read").p99()
            row["live_shards"] = len(fleet.live_shards)
            if trace.arrivals_ns is not None:
                now = int(trace.arrivals_ns[stop - 1])
                shards = fleet.shards.values()
                backlog = (s.backend.overload_signals(now).pressure_ns for s in shards)
                row["max_backlog_ns"] = int(max(backlog, default=0))
            if label is not None:
                row.update(label(start, stop))
            rows.append(row)
        if verbose:
            print(f"[{window}] ops {start}..{stop} miss={fleet.miss_ratio:.3f}")
    return rows
