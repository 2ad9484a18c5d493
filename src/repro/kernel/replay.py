"""``KernelBench``: the replay loop under the name the benchmark binds.

There is one replay loop, :func:`repro.bench.driver.replay`; a
:class:`~repro.kernel.arrays.TraceArrays` is a
:class:`~repro.workloads.trace.Trace` to it.  This class exists because
``perfbench`` constructs it for its ``kv_fdp_kernel`` row, whose
kernel/scalar throughput ratio is therefore 1.00 by construction
(EXPERIMENTS.md, "Host-time performance", has the measurements that
retired the separate loop); once a benchmark-only change drops that
row the class can go.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..bench.driver import CacheBench, replay
from ..bench.metrics import RunResult
from ..cache.hybrid import HybridCache
from ..workloads.trace import Trace

__all__ = ["KernelBench"]


class KernelBench(CacheBench):
    """:class:`~repro.bench.driver.CacheBench` by another name."""

    def run(
        self,
        cache: HybridCache,
        trace: Trace,
        *,
        name: Optional[str] = None,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> RunResult:
        """Replay ``trace`` and return the collected metrics."""
        # Not inherited and not super().run: perfbench's tracer wraps
        # each class's own ``run`` as a root span, and nesting the two
        # would count the replay twice.
        return replay(self.config, cache, trace, name=name, progress=progress)
