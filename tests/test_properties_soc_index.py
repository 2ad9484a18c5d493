"""The SOC's key index, rule by rule.

``SmallObjectCache._masks`` (key -> bloom mask) is the engine's key
index by contract: it holds exactly the resident keys, so ``contains``
and the not-resident outcome of ``invalidate``/``delete`` are answered
from it without a fingerprint.  Each bucket image maps a key to its
stored size packed above that same mask, and the fingerprint table
answers exactly what hashing would for every key it holds.  This state
machine drives every method that lets a key enter or leave — including
the degradation paths (a failed bucket rewrite, a UECC, a page unmapped
underneath the engine) and warm restart from the persisted headers —
and checks after each step that the index, the per-bucket
images and the byte accounting still describe the same set of items.

A bucket is shared copy-on-write with the payload of its last rewrite,
and its bloom is built at the first lookup after it.  So the machine
also keeps a shadow copy of every acknowledged rewrite's manifest and
checks, after every step, that each mapped bucket page still holds
what its rewrite wrote, and that the bloom a lookup would read is the
eager OR of the masks of the keys that rewrite wrote (none after the
bucket was dropped).
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from functools import reduce
from operator import or_

from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cache import CacheItem, SmallObjectCache
from repro.cache.bloom import BloomFilter, bloom_mask, splitmix64
from repro.cache.soc import (
    _FP_MAX_SLOTS,
    _MASKS,
    _PROBE,
    _PROBE_BITS,
    BLOOM_BITS,
    BLOOM_HASHES,
)
from repro.cache.kangaroo import KangarooCache
from repro.core import DEFAULT_HANDLE, FdpAwareDevice
from repro.faults.errors import ProgramFailError, UncorrectableReadError
from repro.ssd import DeviceOfflineError, Geometry, SimulatedSSD

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
    the way an exhausted retry budget surfaces to an engine.

    It also logs what the SOC above it (at LBA 0, so LBA == bucket) may
    answer for: ``written`` maps ``(bucket, generation)`` to a copy of
    the manifest taken when the rewrite was acknowledged, and ``log``
    lists ``(bucket, keys)`` as they happen — the rewrite's keys, or
    none when the rewrite failed or the page read back unmapped or
    unreadable (the engine drops the bucket)."""

    fail_next_write = False
    next_read = None  # "uecc" | "unmapped"

    def __init__(self, ssd) -> None:
        super().__init__(ssd)
        self.written = {}
        self.log = []

    def write(
        self, lba, npages, handle=DEFAULT_HANDLE, now_ns=0, worker="worker-0",
        payload=None,
    ):
        if self.fail_next_write:
            self.fail_next_write = False
            self.log.append((lba, {}))
            raise ProgramFailError("scripted", lba=lba)
        done = super().write(lba, npages, handle, now_ns, worker, payload)
        _, bucket, generation, manifest = payload
        shadow = self.written[bucket, generation] = dict(manifest)
        self.log.append((bucket, shadow))
        return done

    def read(self, lba, npages=1, now_ns=0, worker="worker-0"):
        outcome, self.next_read = self.next_read, None
        if outcome is None:
            mapped, done = super().read(lba, npages, now_ns, worker)
        else:
            mapped, done = False, now_ns
        if not mapped:
            self.log.append((lba, {}))
        if outcome == "uecc":
            raise UncorrectableReadError("scripted", lba=lba)
        return mapped, done


class _MappedReads:
    """A device whose every read is mapped and free."""

    @staticmethod
    def read(lba, npages, now_ns, worker):
        return True, now_ns


def bloom_a_lookup_reads(soc: SmallObjectCache, bucket: int) -> int:
    """The bloom field a lookup in ``bucket`` tests its key against,
    taken from a throwaway probe so ``soc`` itself builds nothing."""
    probe = copy.copy(soc)
    probe.device = _MappedReads
    probe._pending_blooms = list(soc._pending_blooms)
    probe._blooms = [copy.copy(bloom) for bloom in soc._blooms]
    key = next(k for k in itertools.count(10**6) if soc.bucket_of(k) == bucket)
    probe.lookup(key)
    return probe._blooms[bucket]._field


def eager_bloom(keys) -> int:
    """The field a rebuild at the rewrite itself would have left."""
    return reduce(or_, map(BloomFilter().mask, keys), 0)


def unpack(packed: int):
    """A bucket entry's ``(stored size, bloom mask)``."""
    return packed >> BLOOM_BITS, packed & (1 << BLOOM_BITS) - 1


def exact_fingerprint(soc: SmallObjectCache, key: int):
    """A key's ``(bucket, mask)`` by hashing, as the table must answer."""
    h1 = splitmix64(key)
    return h1 % soc.num_buckets, bloom_mask(h1, BLOOM_BITS, BLOOM_HASHES)


def check_index(soc: SmallObjectCache, keys=range(0, 161)) -> None:
    """The index, the bucket images (each entry a stored size packed
    above its key's mask), the accounting and the fingerprint table
    agree."""
    assert set(soc._masks) == set(soc.resident_items())
    assert len(soc._masks) == soc.item_count  # no key sits in two buckets
    for bucket, entries in enumerate(soc._buckets):
        assert soc._used[bucket] == sum(unpack(p)[0] for p in entries.values())
        assert soc._used[bucket] <= soc.usable_bucket_bytes
        for key, packed in entries.items():
            assert soc.bucket_of(key) == bucket
            assert soc._masks[key] == unpack(packed)[1] == soc._blooms[bucket].mask(key)
    for key in keys:
        assert soc.contains(key) == (key in soc._buckets[soc.bucket_of(key)])
    for key in set(keys) | set(soc._masks):
        slot = key & soc._slot
        if soc._fp_keys[slot] == key:
            fp = soc._fps[slot]
            bucket, mask = exact_fingerprint(soc, key)
            assert fp >> _PROBE_BITS == bucket and _MASKS[fp & _PROBE] == mask


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
        # bucket -> the keys its bloom answers for (its last rewrite's)
        self.bloom_keys = {bucket: {} for bucket in range(NUM_BUCKETS)}
        # the device of the engine a round trip left behind
        self.left_behind = None

    def _scan(self, key) -> bool:
        """Residency by the bucket scan the index replaced."""
        return key in self.soc._buckets[self.soc.bucket_of(key)]

    def _groups(self, items, split):
        """``items`` grouped by bucket; with ``split``, each bucket's
        group of two or more is cut in two and its second half sent
        after every first half, so groups of one bucket are not
        adjacent (the engine must merge them into one rewrite)."""
        groups = {}
        for item in items:
            groups.setdefault(self.soc.bucket_of(item.key), []).append(item)
        if not split:
            return list(groups.values())
        firsts = [group[: len(group) // 2 or 1] for group in groups.values()]
        seconds = [group[len(group) // 2 or 1 :] for group in groups.values()]
        return firsts + [group for group in seconds if group]

    @rule(item=ITEMS, fail=st.booleans())
    def insert(self, item, fail):
        self.io.fail_next_write = fail
        admitted, _ = self.soc.insert(item)
        assert admitted == self.soc.accepts(item)
        if admitted:
            # A failed rewrite drops the bucket, the new item included.
            assert self.soc.contains(item.key) == (not fail)
        self.io.fail_next_write = False

    @rule(
        items=st.lists(ITEMS, max_size=24), fail=st.booleans(), split=st.booleans()
    )
    def insert_many_batched(self, items, fail, split):
        pages = [self.io.read_payload(b)[0] for b in range(NUM_BUCKETS)]
        self.io.fail_next_write = fail  # the first bucket of the batch
        admitted, _ = self.soc.insert_many_batched(self._groups(items, split))
        self.io.fail_next_write = False
        # One rewrite per bucket, however its items were grouped; the
        # count is of every item staged, a failed rewrite's included.
        fitting = [item for item in items if self.soc.accepts(item)]
        assert admitted == len(fitting)
        rewritten = {self.soc.bucket_of(item.key) for item in fitting}
        assert sorted(b for b, _ in self.io.log) == sorted(rewritten)
        failed = {b for b, keys in self.io.log if not keys}
        assert len(failed) == (1 if fail and rewritten else 0)
        for bucket in range(NUM_BUCKETS):
            page = self.io.read_payload(bucket)[0]
            if bucket not in rewritten:
                assert page is pages[bucket]
            elif bucket not in failed:
                assert page[3] is self.soc._buckets[bucket]
            else:
                # A failed rewrite leaves its page as it was and drops
                # the bucket: none of its keys stays resident.
                assert page is pages[bucket]
                assert not any(self.soc.bucket_of(k) == bucket for k in self.soc._masks)

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
            assert item is None and not self.soc._buckets[bucket]

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

    def _recover(self):
        self.ssd.recover()
        report = self.soc.recover()
        assert report["items_recovered"] == self.soc.item_count
        self.io.log.clear()
        for bucket in range(NUM_BUCKETS):
            payload = self.io.read_payload(self.soc.base_lba + bucket)[0]
            self.bloom_keys[bucket] = (
                {} if payload is None else self.io.written[bucket, payload[2]]
            )

    @rule()
    def power_cut_and_recover(self):
        self.ssd.power_cut()
        self._recover()

    @rule(item=ITEMS)
    def insert_while_powered_off(self, item):
        """A rewrite that never reaches flash: the bucket's image has
        moved on (a key staged, maybe others evicted), but its bloom
        still answers for the last rewrite that did."""
        self.ssd.power_cut()
        try:
            self.soc.insert(item)
        except DeviceOfflineError:
            assert self.soc.contains(item.key)
        self.blooms_answer_for_their_last_rewrite()
        self._recover()

    @rule(how=st.sampled_from(("deepcopy", "pickle")))
    def round_trip(self, how):
        """Carry on with a copy of the device and the engine; the pages
        of the one left behind must keep what their rewrites wrote."""
        state = (self.ssd, self.io, self.soc)
        if how == "deepcopy":
            clone = copy.deepcopy(state)
        else:
            clone = pickle.loads(pickle.dumps(state))
        self.left_behind = self.io
        self.ssd, self.io, self.soc = clone

    @invariant()
    def index_is_exact(self):
        check_index(self.soc)

    @invariant()
    def pages_hold_what_their_rewrites_wrote(self):
        for io in (self.io, self.left_behind):
            if io is None:
                continue
            for bucket in range(NUM_BUCKETS):
                payload = io.read_payload(bucket)[0]
                if payload is not None:
                    assert payload[3] == io.written[bucket, payload[2]]

    @invariant()
    def blooms_answer_for_their_last_rewrite(self):
        for bucket, keys in self.io.log:
            self.bloom_keys[bucket] = keys
        self.io.log.clear()
        for bucket in range(NUM_BUCKETS):
            assert bloom_a_lookup_reads(self.soc, bucket) == eager_bloom(
                self.bloom_keys[bucket]
            )


def _soc(num_buckets=NUM_BUCKETS):
    io = FdpAwareDevice(SimulatedSSD(GEOMETRY, fdp=True))
    return SmallObjectCache(
        io, io.allocator.allocate("soc"), base_lba=0, num_buckets=num_buckets
    )


# Any int is a key: negative ones, ones of 2**63 and up, ones 2**64
# apart (``splitmix64`` reads a key mod 2**64), and ones that share a
# fingerprint-table slot (in a table of any size) and so evict each
# other from it.
ANY_KEYS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(2**63 - 8, 2**64 + 8),
    st.builds(
        lambda low, high: low + high * _FP_MAX_SLOTS, st.integers(0, 7), st.integers(-3, 3)
    ),
    st.builds(lambda key, wraps: key + wraps * 2**64, KEYS, st.integers(-2, 2)),
)


@settings(max_examples=150, deadline=None)
@given(
    keys=st.lists(ANY_KEYS, min_size=1, max_size=40),
    num_buckets=st.integers(1, 5000),
)
def test_fingerprints_are_exact(keys, num_buckets):
    """Whatever the table holds or lost, a key's bucket and mask are
    ``splitmix64(key) % num_buckets`` and ``bloom_mask(splitmix64(key),
    64, 4)``, through ``_fingerprint`` and through ``lookup``'s copy."""
    soc = _soc(num_buckets)
    soc.device = _MappedReads
    for i, key in enumerate(keys + keys[::-1]):
        bucket, mask = exact_fingerprint(soc, key)
        if i % 2:
            soc.lookup(key)  # fills the slot through lookup's copy
        fp = soc._fingerprint(key)
        assert fp >> _PROBE_BITS == bucket == soc.bucket_of(key)
        assert _MASKS[fp & _PROBE] == mask
    check_index(soc, keys=keys)


@settings(max_examples=60, deadline=None)
@given(
    items=st.lists(ITEMS, min_size=1, max_size=40),
    gone=st.lists(KEYS, max_size=20),
)
def test_a_bloom_from_a_packed_manifest_is_the_eager_one(items, gone):
    """A lookup ORs the packed manifest of the bucket's last rewrite:
    the same field as adding each of that manifest's keys, keys
    invalidated since included."""
    soc = _soc()
    for item in items:
        soc.insert(item)
    for key in gone:
        soc.invalidate(key)
    for bucket in range(NUM_BUCKETS):
        page = soc.device.read_payload(bucket)[0]
        keys = [] if page is None else list(page[3])
        assert bloom_a_lookup_reads(soc, bucket) == eager_bloom(keys)


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
        bucket = clone.bucket_of(victim)
        page = clone.device.read_payload(clone.base_lba + bucket)[0]
        stored = dict(page[3])
        # The copy's bucket is still its page's manifest...
        assert clone._buckets[bucket] is page[3]
        assert clone.invalidate(victim) and soc.contains(victim)
        # ... so invalidating unshared it: neither page changed.
        assert victim not in clone._buckets[bucket] and page[3] == stored
        assert soc.device.read_payload(soc.base_lba + bucket)[0][3] == stored
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
