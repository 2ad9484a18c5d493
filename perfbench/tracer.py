"""Outside-in span tracer: wraps each layer's public entry points.

The tracer lives in the benchmark, not in the program: it patches the
*classes* of every layer (``BloomFilter`` has ``__slots__``, so
instances cannot be patched) inside a context manager that is
installed before the cache is built and removed afterwards.  Every
wrapped call is one span on a stack; a span's *self time* is its
duration minus the time its child spans cover, so the self times of
all spans under a replay add up to the replay's wall time exactly.

Spans are aggregated in place (calls and self time per span name);
full ``(name, start, end, parent, op)`` records are kept only for
every :data:`SAMPLE_EVERY`-th trace op.  Each wrapper costs about a
microsecond, which lands in the *caller's* self time — a traced run
is for shares and counts, never for throughput (``trace.overhead_ratio``
says how far off it is).

The tracer only reads clocks and its own lists; it never touches an
argument or a result beyond reading a GET's outcome to tell a
read-through fill from the next trace op, so simulated state is the
same with and without it (the benchmark checks that on every run).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from repro.cache.hybrid import MISS

#: Keep full span records for every N-th trace op.
SAMPLE_EVERY = 1000

#: The replay loops.  Every other span of a replay nests under one of
#: these, so their total time is the part of the replay wall that the
#: layers' self times account for.
ROOT_SPANS = ("bench.driver.run", "kernel.replay.run", "fleet.driver.run")

#: Layers whose methods the replay loops call once per trace op.
_ENTRY_LAYERS = ("cache.hybrid", "fleet.router")


def _targets() -> List[Tuple[object, str, str]]:
    """(owner, attribute, layer) for every wrapped entry point."""
    from repro import bench
    from repro.bench import driver as bench_driver
    from repro.bench import runner
    from repro.cache.admission import AdmissionPolicy
    from repro.cache.bloom import BloomFilter
    from repro.cache.dram import DramCache
    from repro.cache.hybrid import HybridCache
    from repro.cache.loc import LargeObjectCache
    from repro.cache.soc import SmallObjectCache
    from repro.core.device_layer import FdpAwareDevice
    from repro.fleet.driver import FleetDriver
    from repro.fleet.hashring import ConsistentHashRouter
    from repro.fleet.router import FleetCache
    from repro.fleet.shard import CacheShard
    from repro.kernel.replay import KernelBench
    from repro.ssd.device import SimulatedSSD
    from repro.ssd.ftl import Ftl
    from repro.ssd.sched import MultiQueueScheduler

    table = [
        # make_trace is a module function bound under two names.
        (bench, "workloads", ("make_trace",)),
        (runner, "workloads", ("make_trace",)),
        (bench_driver.CacheBench, "bench.driver", ("run",)),
        (KernelBench, "kernel.replay", ("run",)),
        (FleetDriver, "fleet.driver", ("run",)),
        (FleetCache, "fleet.router", ("get", "set", "delete")),
        (ConsistentHashRouter, "fleet.hashring", ("route",)),
        (CacheShard, "fleet.shard", ("get", "set", "delete")),
        (HybridCache, "cache.hybrid", ("get_where", "get", "set", "delete")),
        (DramCache, "cache.dram", ("get", "set", "delete")),
        (AdmissionPolicy, "cache.admission", ("admit",)),
        (BloomFilter, "cache.bloom", ("add", "may_contain", "rebuild")),
        (
            SmallObjectCache,
            "cache.soc",
            ("lookup", "insert", "insert_many_batched", "invalidate", "delete"),
        ),
        (LargeObjectCache, "cache.loc", ("lookup", "insert", "invalidate", "delete")),
        (
            FdpAwareDevice,
            "core.device_layer",
            ("write", "read", "submit_batch", "deallocate"),
        ),
        (
            SimulatedSSD,
            "ssd.device",
            (
                "write",
                "read",
                "submit_batch",
                "write_arrays",
                "deallocate",
                "submit_async",
                "poll",
            ),
        ),
        (
            Ftl,
            "ssd.ftl",
            ("write_range", "write_arrays", "read", "read_range", "deallocate"),
        ),
        (MultiQueueScheduler, "ssd.sched", ("submit", "poll")),
    ]
    return [(owner, attr, layer) for owner, layer, attrs in table for attr in attrs]


def _get_missed(result) -> bool:
    """Did this driver-level GET miss (so the driver fills it next)?"""
    if isinstance(result, tuple):  # HybridCache.get_where
        return result[0] == MISS
    where = getattr(result, "where", None)  # GetResult / FleetGetResult
    return where == MISS and not getattr(result, "degraded", False)


class Tracer:
    """Context manager that installs and removes the class-level wrappers."""

    def __init__(self) -> None:
        self.names: List[str] = []  # span id -> "layer.method"
        self.layers: List[str] = []  # span id -> layer
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.total_ns: List[int] = []
        #: Sampled records: [span id, start_ns, end_ns, parent record, op].
        self.records: List[List[int]] = []
        self.ops_seen = 0
        self._stack: List[int] = []  # child-time accumulator per open span
        self._rec_stack: List[int] = []  # open sampled records
        # One-element lists so the wrappers read them without an
        # attribute lookup on the tracer.
        self._recording = [True]  # spans outside any op are always kept
        self._fill_key: List[object] = [None]
        self._originals: List[Tuple[object, str, object]] = []
        self._t0 = 0

    # -- install / remove ---------------------------------------------

    def __enter__(self) -> "Tracer":
        self._t0 = time.perf_counter_ns()
        shared: Dict[int, Callable] = {}  # make_trace is patched twice
        for owner, attr, layer in _targets():
            original = vars(owner)[attr]
            wrapper = shared.get(id(original))
            if wrapper is None:
                wrapper = self._wrap(original, f"{layer}.{attr}", layer)
                shared[id(original)] = wrapper
            self._originals.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- the wrappers -------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        sid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)

        now = time.perf_counter_ns
        stack = self._stack
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        recording, records, rec_stack = self._recording, self.records, self._rec_stack
        tracer = self
        is_root = name in ROOT_SPANS

        def wrapper(*args, **kwargs):
            rec = -1
            if recording[0]:
                rec = len(records)
                records.append(
                    [sid, 0, 0, rec_stack[-1] if rec_stack else -1,
                     tracer.ops_seen - 1 if stack else -1]
                )
                rec_stack.append(rec)
            stack.append(0)
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                child = stack.pop()
                duration = t1 - t0
                calls[sid] += 1
                self_ns[sid] += duration - child
                total_ns[sid] += duration
                if stack:
                    stack[-1] += duration
                if rec >= 0:
                    rec_stack.pop()
                    records[rec][1] = t0 - tracer._t0
                    records[rec][2] = t1 - tracer._t0
                if is_root:
                    recording[0] = True  # between replays: keep every span

        if layer in _ENTRY_LAYERS:
            is_get = name.rsplit(".", 1)[1].startswith("get")
            wrapper = self._count_ops(wrapper, is_get)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_ops(self, span: Callable, is_get: bool) -> Callable:
        """Op accounting around a cache-facing method.

        Called straight from a replay loop (one open span: the loop's)
        it is a driver-level request: one per trace op, plus one SET
        per missed GET — the read-through fill, which stays with the
        GET's op.  Deeper calls (a shard calling its own cache) pass
        through.
        """
        stack, recording, fill_key = self._stack, self._recording, self._fill_key
        tracer = self

        def entry(*args, **kwargs):
            if len(stack) != 1:
                return span(*args, **kwargs)
            key = args[1]
            if is_get or fill_key[0] != key:
                op = tracer.ops_seen
                tracer.ops_seen = op + 1
                recording[0] = op % SAMPLE_EVERY == 0
            fill_key[0] = None
            result = span(*args, **kwargs)
            if is_get and _get_missed(result):
                fill_key[0] = key
            return result

        return entry

    # -- results ------------------------------------------------------

    def span_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds, total seconds."""
        return {
            name: {
                "calls": self.calls[sid],
                "self_s": self.self_ns[sid] / 1e9,
                "total_s": self.total_ns[sid] / 1e9,
            }
            for sid, name in enumerate(self.names)
        }

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls and self seconds summed over its spans."""
        out: Dict[str, Dict[str, float]] = {}
        for sid, layer in enumerate(self.layers):
            row = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += self.calls[sid]
            row["self_s"] += self.self_ns[sid] / 1e9
        return out

    def dump(self) -> dict:
        """The sampled spans, as written to ``out/trace_<workload>.json``."""
        return {
            "sample_every_ops": SAMPLE_EVERY,
            "span_names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.records,
        }
