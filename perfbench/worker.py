"""One fresh process: set a workload up, replay it once, report.

Run by ``run.py``, one at a time (the box has two cores), so that
every replay starts from a clean interpreter: imports, allocator state
and peak RSS belong to this workload alone.  Prints one JSON object as
the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from collections import OrderedDict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: Median seconds of :func:`reference_loop` on the box the first
#: baseline was taken on, when nothing else ran.
REFERENCE_NOMINAL_S = 0.035
_MASK64 = (1 << 64) - 1


def reference_loop() -> float:
    """Seconds a fixed piece of interpreter-bound work takes right now.

    Dict traffic, 64-bit integer mixing and method calls, like the
    simulator's own hot paths.  The shared box this runs on has phases,
    minutes long, in which everything is a third slower; this loop slows
    with the replay, so their ratio holds still.  It is the benchmark's
    yardstick: changing it breaks every comparison with older results.
    """
    lru: "OrderedDict[int, int]" = OrderedDict()
    get, move_to_end, popitem = lru.get, lru.move_to_end, lru.popitem
    x = 0x9E3779B97F4A7C15
    start = time.perf_counter()
    for i in range(90_000):
        x = (x * 0xBF58476D1CE4E5B9 + i) & _MASK64
        key = x >> 47
        if get(key) is None:
            lru[key] = i
            if len(lru) > 40_000:
                popitem(last=False)
        else:
            move_to_end(key)
    return time.perf_counter() - start


def host_speed(reference_s: list) -> float:
    """1.0 on the reference box when calm; 0.65 in a slow phase."""
    return REFERENCE_NOMINAL_S / statistics.median(reference_s)


class ChunkClock:
    """Wall time per chunk, and the machine's speed while it ran.

    ``boundary()`` is called before the replay, at every chunk end and
    after the replay.  Reference samples taken there are not counted
    into any chunk.
    """

    def __init__(self) -> None:
        self.marks = []
        self.reference_s = []
        self._paused = 0.0

    def boundary(self, sample_speed: bool = True) -> None:
        now = time.perf_counter()
        self.marks.append(now - self._paused)
        if sample_speed:
            self.reference_s += [reference_loop(), reference_loop()]
            self._paused += time.perf_counter() - now

    def chunk_s(self) -> list:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]

    def chunk_speed(self) -> list:
        """The machine's speed around each chunk.

        From the samples at the chunk's two boundaries and at the one
        before and the one after (eight; six at either end of the
        replay), so that a replay a slow phase starts or ends in is
        scaled piece by piece.  A traced replay is sampled only before
        and after: one speed for all of it.
        """
        chunks = len(self.marks) - 1
        if len(self.reference_s) < 2 * len(self.marks):
            return [host_speed(self.reference_s)] * chunks
        return [
            host_speed(self.reference_s[max(0, 2 * i - 2) : 2 * i + 6])
            for i in range(chunks)
        ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=time.monotonic(),
        help="parent's time.monotonic() just before it started this process",
    )
    args = parser.parse_args(argv)

    from tracer import ROOT_SPANS, Tracer
    from workloads import SMOKE_OPS, WORKLOADS, common_checks, layer_counters

    workload = WORKLOADS[args.workload]
    ops = SMOKE_OPS if args.smoke else workload.ops
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": ops,
        "traced": args.traced,
        "error": None,
    }
    tracer = Tracer() if args.traced else None
    try:
        with tracer if tracer is not None else nullcontext():
            run = workload.build(args.seed, ops)
            # Set-up ends where the first op would be replayed.
            report["setup_s"] = time.monotonic() - args.spawned_at
            report["setup_speed"] = host_speed([reference_loop() for _ in range(3)])
            if args.setup_only:
                print(json.dumps(report))
                return 0
            gc.collect()
            clock = ChunkClock()
            clock.boundary()
            # Sampling the machine's speed inside a traced replay would
            # land in the replay loop's self time: only around it.
            run.replay(lambda: clock.boundary(sample_speed=tracer is None))
            clock.boundary()
        report["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        report["chunk_s"] = clock.chunk_s()
        report["replay_s"] = sum(report["chunk_s"])
        report["chunk_speed"] = clock.chunk_speed()
        report["host_speed"] = host_speed(clock.reference_s)
        report["ops_replayed"] = run.ops_replayed()
        report["failed_ops"] = run.failed_ops()
        report["checks"] = common_checks(run)
        report["sim"] = run.sim_metrics()
        report["counters"] = layer_counters(run)
    except Exception:  # the parent must get a report, not a dead pipe
        traceback.print_exc()
        report["error"] = traceback.format_exc()
        print(json.dumps(report))
        return 1

    if tracer is not None:
        spans = tracer.span_table()
        report["trace"] = {
            "ops_seen": tracer.ops_seen,
            "spans": spans,
            "layers": tracer.layer_table(),
            "attributed_s": sum(spans[name]["total_s"] for name in ROOT_SPANS),
        }
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        dump = tracer.dump()
        dump.update(workload=args.workload, seed=args.seed, ops=ops)
        with open(out_dir / f"trace_{args.workload}.json", "w") as fh:
            json.dump(dump, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
