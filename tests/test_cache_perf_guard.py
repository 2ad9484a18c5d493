"""Count-based guards on what one cache op costs above the device.

No wall clock, so they cannot flake (same ``sys.setprofile`` technique
as ``tests/test_ftl_perf_guard.py``): each case counts the Python
frames one ``HybridCache`` op enters, how many of them are
``splitmix64`` and how many build a ``CacheItem``.  These are the
mechanisms behind ``kv_fdp``'s host throughput — a key is hashed once
per cache (the SOC's fingerprint table answers for it after its first
sight), an item is built once per SET and once per flash hit, DRAM
hands back what it was given — so a change that quietly hashes a key
again, or boxes a size into a fresh item, fails here in tier-1 before
any benchmark runs.

The bars are what earlier commits measured (in the comments) against
what the latest round left; none may rise.  The FTL's share of a flash write is pinned separately by the
FTL guard.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro.cache
from repro.bench.driver import collector_paused
from repro.bench.runner import build_experiment
from repro.cache import CacheItem, SmallObjectCache
from repro.cache.bloom import BloomFilter, splitmix64
from repro.core import FdpAwareDevice

_SPLITMIX = splitmix64.__code__
_TUPLE_NEW = tuple.__new__
_CACHE_DIR = os.path.dirname(repro.cache.__file__)


def frames(fn):
    """(Python frames entered, ``splitmix64`` frames, ``CacheItem``s
    built) while ``fn()`` runs, not counting ``fn``'s own frame.  An item
    is a ``tuple.__new__`` C call made in the cache package: the
    constructor and every hot path build one that way, and nothing else
    there calls it.  The collector is paused while ``fn`` runs: a pass
    landing inside it would count the frames of any ``gc.callbacks``
    hook (Hypothesis installs one), which depends on test order."""
    counts = [-1, 0, 0]

    def profiler(frame, event, arg):
        if event == "call":
            counts[0] += 1
            counts[1] += frame.f_code is _SPLITMIX
        elif event == "c_call" and arg is _TUPLE_NEW:
            counts[2] += frame.f_code.co_filename.startswith(_CACHE_DIR)

    with collector_paused():
        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
    return tuple(counts)


@pytest.fixture(scope="module")
def warm():
    """A default FDP arm whose DRAM is full and evicting into the SOC;
    yields ``(cache, now_ns, next_unused_key)``."""
    cache = build_experiment(fdp=True, utilization=0.9)
    now, key = 0, 1
    while cache.soc.flash_writes < 50:
        now = cache.set(key, 100, now)
        key += 1
    assert cache.dram.evictions and cache.loc.inserts == 0
    return cache, now, key


def test_set_overwriting_a_dram_resident_key(warm):
    cache, now, key = warm
    resident = key - 1
    evictions = cache.dram.evictions
    # Parent: 9 frames, 1 splitmix64 (to pop nothing from the SOC), 1 item.
    # Then 5; 4 since the item is a tuple built in C.
    assert frames(lambda: cache.set(resident, 100, now)) == (4, 0, 1)
    assert cache.dram.evictions == evictions


def test_get_that_hits_dram(warm):
    cache, now, key = warm
    hits = cache.dram.hits
    # Parent: 3 frames, 1 item (a fresh copy of the one DRAM was given).
    assert frames(lambda: cache.get_where(key - 1, now)) == (2, 0, 0)
    assert cache.dram.hits == hits + 1


def test_get_of_an_absent_key(warm):
    cache, now, _ = warm
    # An absent key needs its hash (bucket) and its mask (second round)
    # for the bloom answer; take one the bloom rejects, so no flash read.
    for key in range(10**12, 10**12 + 64):
        rejects = cache.soc.bloom_rejects
        counted = frames(lambda: cache.get_where(key, now))
        if cache.soc.bloom_rejects == rejects + 1:
            break
    else:
        pytest.fail("no absent key was rejected by its bucket's bloom")
    # Parent: 8 frames, 2 splitmix64, 0 items; 7 since the SOC indexes
    # its bloom shape's probe table in line — may not rise.
    assert counted[0] <= 7 and counted[1:] == (2, 0)
    # Asked again, the key's fingerprint is in the table: 5 frames.
    assert frames(lambda: cache.get_where(key, now)) == (5, 0, 0)


def one_victim_set(cache, now, key, measure):
    """``measure(set_op)`` for the first SET from ``key`` on that evicts
    one DRAM victim into one bucket rewrite: one bucket page, no
    metadata flush, no superblock opened and no GC — the steady-state
    shape of a flash admission."""
    soc, device = cache.soc, cache.device

    def state():
        return (
            cache.dram.evictions,
            soc.flash_writes,
            device.stats.host_pages_written,
            device.stats.nand_pages_written,
            cache._meta_counter // cache.config.metadata_flush_interval,
            device.ftl.free_superblocks,
        )

    for key in range(key, key + 64):
        before = state()
        measured = measure(lambda: cache.set(key, 100, now))
        if tuple(b - a for a, b in zip(before, state())) == (1, 1, 1, 1, 0, 0):
            return measured
    pytest.fail("no SET had the one-victim, one-rewrite shape")


def test_set_that_evicts_one_item_into_one_bucket_rewrite(warm):
    cache, now, key = warm
    counted = one_victim_set(cache, now, key, frames)
    # Parent: 58 frames (3 of them dataclass __hash__), 4 splitmix64 —
    # the victim hashed by contains, insert and bloom_mask, the SET key
    # by invalidate — and 2 items.  Then 38 frames: the victim's h1 and
    # its mask's second round, and the SET's own item.  Then 36: the
    # rewrite neither copies the bucket into a manifest nor rebuilds its
    # bloom.  Then the write chain under it called no idle hook: bar 28,
    # measured 26.  Now the eviction stages and evicts in one frame,
    # builds its payload where it writes, computes the mask in line,
    # calls no placement hook that does nothing, and the FTL stamps one
    # page in line: 20.  Then the item lost its __init__ frame and the
    # victim's first sight gained the fingerprint table's: 20.
    assert counted[0] <= 20 and counted[1:] == (2, 1)


def test_a_key_is_hashed_once_per_cache(warm):
    """A key's first sight costs exactly its two ``splitmix64`` rounds
    (bucket, then mask); from then on the SOC's fingerprint table
    answers: a second lookup of an absent key, and a bucket rewrite of a
    key the cache has seen, enter no ``splitmix64`` frame."""
    cache, now, key = warm
    soc = cache.soc
    key += 2000  # clear of the keys the other cases set
    assert frames(lambda: soc.lookup(key, now))[1] == 2
    assert frames(lambda: soc.lookup(key, now))[1] == 0
    # The DRAM items next in line for eviction, each looked up once.
    for seen in list(cache.dram._items)[:64]:
        soc.lookup(seen, now)
    counted = one_victim_set(cache, now, key + 1, frames)
    assert counted[0] <= 18 and counted[1:] == (0, 1)


def test_a_bucket_rewrite_builds_no_bloom(warm):
    """A rewrite leaves its bucket's bloom to the next lookup (which
    may never come): the SET that rewrites a bucket enters
    ``BloomFilter.rebuild`` zero times, the lookup after it once."""
    cache, now, key = warm
    rebuild = BloomFilter.rebuild.__code__

    def rebuilds(fn):
        entered = [0]

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is rebuild:
                entered[0] += 1

        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return entered[0]

    resident = set(cache.soc.resident_items())
    key += 1000  # clear of the keys the other cases set
    assert one_victim_set(cache, now, key, rebuilds) == 0
    victim = min(set(cache.soc.resident_items()) - resident)
    assert rebuilds(lambda: cache.soc.lookup(victim, now)) == 1
    assert rebuilds(lambda: cache.soc.lookup(victim, now)) == 0


def test_batched_set_insert_hashes_each_item_once(fdp_ssd):
    """The Kangaroo move path: every item of a single-bucket group is
    hashed once for the single-bucket check, the placement and its mask
    (parent: 3 per item + 1 per group + the second rounds), and not at
    all once the SOC has seen its key."""
    layer = FdpAwareDevice(fdp_ssd)
    soc = SmallObjectCache(
        layer, layer.allocator.allocate("soc"), base_lba=0, num_buckets=64
    )
    groups = {}
    for k in range(600):
        groups.setdefault(soc.bucket_of(k), []).append(CacheItem(k, 100))
    batches = [group[:5] for group in list(groups.values())[:3]]
    items = sum(len(group) for group in batches)
    assert items == 15
    _, hashes, built = frames(lambda: soc.insert_many_batched(batches))
    assert soc.item_count == items
    assert (hashes, built) == (0, 0)  # bucket_of saw every key above
    fresh = SmallObjectCache(
        layer, layer.allocator.allocate("soc2"), base_lba=64, num_buckets=64
    )
    _, hashes, built = frames(lambda: fresh.insert_many_batched(batches))
    assert fresh.item_count == items
    assert (hashes, built) == (2 * items, 0)
