"""The pure-Python floor under a ``kv_fdp`` replay.

ROADMAP set a >=3x host-throughput bar (over ``BENCH_11``) before
anything had been measured.  This script measures what that bar is up
against: a loop that does only what *no* cache design over this device
model can skip — one ``OrderedDict`` LRU get/set per op, and the
simulated SSD's own ``write``/``read`` at the rates ``kv_fdp`` issues
them (0.175 page writes and 0.087 page reads per op, the ratios of the
700k-op benchmark row) — with no admission, no SOC/LOC, no bloom
filters, no device layer, no metrics.  It then replays the same trace
through ``CacheBench`` in the same process, alternating, so the two
numbers share the host's speed phase.

    PYTHONPATH=src python benchmarks/replay_floor.py [--ops N] [--rounds R]

``replay / floor`` is the share of the floor's speed the real cache
reaches; ``floor / (3 x BENCH_11)`` says whether the 3x bar was ever
on this side of the floor.  Not a pytest bench: it asserts nothing and
writes nothing; EXPERIMENTS.md ("Host-time performance") records the
reading and the verdict.
"""

from __future__ import annotations

import argparse
import statistics
import time
from collections import OrderedDict

from repro.bench import DEFAULT_SCALE, CacheBench, build_experiment, make_trace
from repro.workloads.trace import OP_GET

# kv_fdp at 700k ops, seed 7: 122,806 device writes and 60,983 device
# reads, every one a single page (SOC bucket rewrites and lookups; the
# LOC's multi-page region flushes are 2% of the writes).
WRITES_PER_KOP = 175
READS_PER_KOP = 87
# BENCH_11's kv_fdp row (perfbench/baselines/BENCH_11.json), scaled kops/s.
BENCH_11_KV_FDP = 83.5
THINK_NS = 100_000


def build(num_ops: int, seed: int):
    cache = build_experiment(fdp=True, utilization=0.9)
    trace = make_trace(
        "kvcache", cache.config.nvm_bytes, DEFAULT_SCALE, num_ops=num_ops, seed=seed
    )
    return cache, trace


def floor_loop(cache, trace) -> float:
    """Replay ``trace`` against a bare LRU + the bare device; seconds."""
    device = cache.device
    write, read = device.write, device.read
    pid = cache.soc.handle.pid
    base, span = cache.soc.base_lba, cache.soc.num_buckets
    capacity = len(trace) // 200  # ~3.5k items, what DRAM holds on kv_fdp
    lru: "OrderedDict[int, int]" = OrderedDict()
    lru_get, move_to_end, popitem = lru.get, lru.move_to_end, lru.popitem
    ops = trace.ops.tolist()
    keys = trace.keys.tolist()
    sizes = trace.sizes.tolist()
    write(base, 1, pid, 0)  # something to read
    now = written = read_from = 0
    t0 = time.perf_counter()
    for i, (op, key, size) in enumerate(zip(ops, keys, sizes)):
        done = now
        if op == OP_GET and lru_get(key) is not None:
            move_to_end(key)
        else:
            lru[key] = size
            if len(lru) > capacity:
                popitem(last=False)
        if (i * WRITES_PER_KOP) % 1000 < WRITES_PER_KOP:
            written += 1
            done = write(base + written % span, 1, pid, now)
        if (i * READS_PER_KOP) % 1000 < READS_PER_KOP:
            read_from += 1
            done = read(base + read_from % min(span, written + 1), 1, now)[1]
        now = done + THINK_NS
    return time.perf_counter() - t0


def replay_loop(cache, trace) -> float:
    t0 = time.perf_counter()
    CacheBench().run(cache, trace)
    return time.perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=700_000)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    floors, replays = [], []
    for rnd in range(args.rounds):
        order = (floor_loop, replay_loop) if rnd % 2 == 0 else (replay_loop, floor_loop)
        for loop in order:
            cache, trace = build(args.ops, args.seed + rnd)
            kops = args.ops / loop(cache, trace) / 1e3
            (floors if loop is floor_loop else replays).append(kops)
            cache.device.check_invariants()
        print(
            f"round {rnd}: floor {floors[-1]:7.1f}  replay {replays[-1]:7.1f} "
            f"raw kops/s  (replay/floor {replays[-1] / floors[-1]:.2f})"
        )
    floor, replay = statistics.median(floors), statistics.median(replays)
    print(f"floor   {floor:7.1f} raw kops/s (LRU + device model only)")
    print(f"replay  {replay:7.1f} raw kops/s (CacheBench, same traces)")
    print(f"replay / floor        = {replay / floor:.2f}")
    print(
        f"floor / BENCH_11 row  = {floor / BENCH_11_KV_FDP:.2f}x "
        f"(raw floor over the scaled {BENCH_11_KV_FDP} kops/s; the 3x bar "
        f"is {3 * BENCH_11_KV_FDP:.0f})"
    )


if __name__ == "__main__":
    main()
