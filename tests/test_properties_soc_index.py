"""The SOC's key index, rule by rule.

``SmallObjectCache._masks`` (key -> bloom mask) is the engine's key
index by contract: it holds exactly the resident keys, so ``contains``,
the not-resident outcome of ``invalidate``/``delete`` and ``lookup``'s
residency test are answered from it without hashing.  This state
machine drives every method that lets a key enter or leave — including
the degradation paths (a failed bucket rewrite, a UECC, a page unmapped
underneath the engine) and warm restart from the persisted headers —
and checks after each step that the index, the per-bucket
images and the byte accounting still describe the same set of items.
"""

from __future__ import annotations

import copy
import pickle
import random

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cache import CacheItem, SmallObjectCache
from repro.cache.kangaroo import KangarooCache
from repro.core import FdpAwareDevice
from repro.faults.errors import ProgramFailError, UncorrectableReadError
from repro.ssd import Geometry, SimulatedSSD

GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=4,
    planes_per_die=2,
    dies=2,
    num_superblocks=48,
    op_fraction=0.15,
)
NUM_BUCKETS = 16
KEYS = st.integers(0, 160)
# 900-byte items overflow a bucket after four (FIFO eviction); 5000 fits
# no bucket and is refused.
SIZES = st.sampled_from((60, 300, 900, 5000))
ITEMS = st.builds(CacheItem, KEYS, SIZES)


class ScriptedDevice(FdpAwareDevice):
    """The device layer, with the next write or read failing on request
    the way an exhausted retry budget surfaces to an engine."""

    fail_next_write = False
    next_read = None  # "uecc" | "unmapped"

    def write(self, lba, npages, *args, **kwargs):
        if self.fail_next_write:
            self.fail_next_write = False
            raise ProgramFailError("scripted", lba=lba)
        return super().write(lba, npages, *args, **kwargs)

    def read(self, lba, npages=1, now_ns=0, worker="worker-0"):
        outcome, self.next_read = self.next_read, None
        if outcome == "uecc":
            raise UncorrectableReadError("scripted", lba=lba)
        if outcome == "unmapped":
            return False, now_ns
        return super().read(lba, npages, now_ns, worker)


def check_index(soc: SmallObjectCache, keys=range(0, 161)) -> None:
    """The index, the bucket images and the accounting agree."""
    assert set(soc._masks) == set(soc.resident_items())
    assert len(soc._masks) == soc.item_count  # no key sits in two buckets
    for bucket, entries in enumerate(soc._buckets):
        assert soc._used[bucket] == sum(entries.values())
        assert soc._used[bucket] <= soc.usable_bucket_bytes
        for key in entries:
            assert soc.bucket_of(key) == bucket
            assert soc._masks[key] == soc._blooms[bucket].mask(key)
    for key in keys:
        assert soc.contains(key) == (key in soc._buckets[soc.bucket_of(key)])


class SocIndexMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.ssd = SimulatedSSD(GEOMETRY, fdp=True)
        self.io = ScriptedDevice(self.ssd)
        self.soc = SmallObjectCache(
            self.io,
            self.io.allocator.allocate("soc"),
            base_lba=0,
            num_buckets=NUM_BUCKETS,
        )

    def _scan(self, key) -> bool:
        """Residency by the bucket scan the index replaced."""
        return key in self.soc._buckets[self.soc.bucket_of(key)]

    def _groups(self, items):
        groups = {}
        for item in items:
            groups.setdefault(self.soc.bucket_of(item.key), []).append(item)
        return list(groups.values())

    @rule(item=ITEMS, fail=st.booleans())
    def insert(self, item, fail):
        self.io.fail_next_write = fail
        admitted, _ = self.soc.insert(item)
        assert admitted == self.soc.accepts(item)
        if admitted:
            # A failed rewrite drops the bucket, the new item included.
            assert self.soc.contains(item.key) == (not fail)
        self.io.fail_next_write = False

    @rule(items=st.lists(ITEMS, max_size=24), fail=st.booleans())
    def insert_many_batched(self, items, fail):
        self.io.fail_next_write = fail  # the first bucket of the batch
        self.soc.insert_many_batched(self._groups(items))
        self.io.fail_next_write = False

    @rule(key=KEYS, read=st.sampled_from((None, None, "uecc", "unmapped")))
    def lookup(self, key, read):
        resident = self._scan(key)
        size = self.soc.resident_items().get(key)
        self.io.next_read = read
        item, _ = self.soc.lookup(key)
        if self.io.next_read is None and read is not None:
            # The scripted read was consumed: the page is gone, so the
            # whole bucket is (bloom cleared — no stale "maybe").
            assert item is None
            assert not self.soc._buckets[self.soc.bucket_of(key)]
        elif resident:
            assert item == CacheItem(key, size)
        else:
            assert item is None
        self.io.next_read = None

    @rule(key=KEYS)
    def lookup_after_trim(self, key):
        """The bucket's page really unmapped underneath the engine: the
        next read of it (a resident key passes the bloom) finds out."""
        bucket = self.soc.bucket_of(key)
        entries = self.soc._buckets[bucket]
        if entries:
            self.io.deallocate(self.soc.base_lba + bucket, 1)
            item, _ = self.soc.lookup(next(iter(entries)))
            assert item is None and not entries

    @rule(key=KEYS)
    def invalidate(self, key):
        resident = self._scan(key)
        assert self.soc.invalidate(key) == resident
        assert not self._scan(key)

    @rule(key=KEYS)
    def delete(self, key):
        resident, writes = self._scan(key), self.soc.flash_writes
        removed, _ = self.soc.delete(key)
        assert removed == resident
        assert not self._scan(key)
        # Only a removal rewrites the bucket.
        assert self.soc.flash_writes == writes + removed

    @rule()
    def power_cut_and_recover(self):
        self.ssd.power_cut()
        self.ssd.recover()
        report = self.soc.recover()
        assert report["items_recovered"] == self.soc.item_count

    @invariant()
    def index_is_exact(self):
        check_index(self.soc)


_SETTINGS = settings(
    max_examples=25,
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestSocIndex = SocIndexMachine.TestCase
TestSocIndex.settings = _SETTINGS


def _populated_soc():
    ssd = SimulatedSSD(GEOMETRY, fdp=True)
    io = FdpAwareDevice(ssd)
    soc = SmallObjectCache(
        io, io.allocator.allocate("soc"), base_lba=0, num_buckets=NUM_BUCKETS
    )
    rng = random.Random(19)
    for _ in range(400):
        soc.insert(CacheItem(rng.randrange(161), rng.choice((60, 300, 900))))
    assert soc.evictions and soc.item_count
    return soc


def test_copies_keep_the_index():
    soc = _populated_soc()
    for clone in (copy.deepcopy(soc), pickle.loads(pickle.dumps(soc))):
        assert clone is not soc and clone._masks is not soc._masks
        assert clone.resident_items() == soc.resident_items()
        check_index(clone)
        # ... and keep it while they diverge from the original.
        victim = next(iter(clone.resident_items()))
        assert clone.invalidate(victim) and soc.contains(victim)
        clone.insert(CacheItem(1000, 300))
        check_index(clone, keys=range(0, 1001, 8))
    check_index(soc)


def test_kangaroo_set_side_keeps_the_index():
    """Kangaroo's set side is a SmallObjectCache fed by batched moves."""
    ssd = SimulatedSSD(GEOMETRY, fdp=True)
    io = FdpAwareDevice(ssd)
    cache = KangarooCache(
        io,
        io.allocator.allocate("log"),
        io.allocator.allocate("set"),
        base_lba=0,
        num_log_pages=6,
        num_buckets=NUM_BUCKETS,
        move_threshold=2,
    )
    rng = random.Random(23)
    for step in range(3000):
        key = rng.randrange(161)
        roll = rng.random()
        if roll < 0.6:
            cache.insert(CacheItem(key, rng.choice((60, 300, 900))))
        elif roll < 0.75:
            cache.lookup(key)
        elif roll < 0.85:
            cache.invalidate(key)
        elif roll < 0.95:
            cache.delete(key)
        else:
            ssd.power_cut()
            ssd.recover()
            cache.recover()
        if step % 100 == 0:
            check_index(cache.sets)
    check_index(cache.sets)
    assert cache.moved_items and cache.sets.evictions
