"""Small Object Cache (SOC): set-associative flash cache for tiny items.

Mirrors CacheLib's SOC design (Section 2.3):

* The SOC's flash space is an array of fixed-size buckets (default
  4 KiB, one NAND page).  A uniform hash maps each key to exactly one
  bucket, so tracking billions of small objects needs almost no DRAM —
  just one small bloom filter per bucket.
* Every insert rewrites the *entire* bucket in place: one random 4 KiB
  page write to the SSD.  This is the "SSD-unfriendly" random write
  pattern whose intermixing with LOC data the paper attacks (Insight 1),
  and whose high self-invalidation rate FDP segregation exploits
  (Insight 3).
* Within a bucket, items are evicted FIFO when an insert overflows the
  bucket's capacity.

The simulator keeps bucket contents (key → size) in memory as ground
truth, but charges flash I/O exactly as the real engine would: a page
write per insert/delete, and a page read per lookup that survives the
bloom filter.

*Warm restart*: each bucket rewrite carries the bucket's on-flash
header — bucket number, generation, and entry manifest, standing in
for the real engine's generation+checksum header — in the device's
out-of-band metadata.  The manifest is the in-memory bucket dict
itself, shared copy-on-write: a rewrite copies nothing, and the next
change to the bucket replaces it with a copy first, so a stored
payload always reads what its rewrite wrote.  An entry packs a key's
stored size above its bloom mask.  Because a bucket is one
NAND page and page programs are atomic-or-torn, a power cut
mid-rewrite leaves either the previous generation (old header
verifies, old contents recovered) or a torn page (header check fails,
bucket comes back empty).  :meth:`SmallObjectCache.recover` re-reads
every bucket header after the device's power-on recovery, restores
contents from verified headers, and drops the rest — no stale "maybe"
answers against pages that did not survive.

A bucket's bloom filter answers for its last rewrite's manifest, but
is built only when read: the first lookup after a rewrite (or a
recovery) ORs the manifest's values, so a rewrite that no lookup
follows costs no filter at all.  A key is hashed once per cache: a
fixed-size fingerprint table keeps its bucket and mask index.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.device_layer import FdpAwareDevice
from ..core.placement import PlacementHandle
from ..faults.errors import MediaError
from .bloom import BloomFilter, probe_table, splitmix64
from .item import ITEM_HEADER_BYTES, CacheItem

__all__ = ["SmallObjectCache", "BUCKET_HEADER_BYTES"]


# Bucket-level metadata stored on flash (generation, checksum, count).
BUCKET_HEADER_BYTES = 16
# Per-bucket bloom filter shape: bits and hash functions.
BLOOM_BITS = 64
BLOOM_HASHES = 4
# That shape's masks, bound once; a key's is ``bloom_mask`` in line:
# ``_MASKS[h1 % BLOOM_BITS * BLOOM_BITS + (splitmix64(h1) | 1) % BLOOM_BITS]``.
_MASKS = probe_table(BLOOM_BITS, BLOOM_HASHES)
# A fingerprint is ``bucket << _PROBE_BITS | probe``, ``_MASKS[probe]``
# the key's mask.  A SOC's fingerprint table has 16 slots per bucket,
# rounded up to a power of two, and at most _FP_MAX_SLOTS.
_PROBE_BITS = (len(_MASKS) - 1).bit_length()
_PROBE = (1 << _PROBE_BITS) - 1
_FP_SLOTS_PER_BUCKET = 16
_FP_MAX_SLOTS = 1 << 16


class SmallObjectCache:
    """Set-associative bucket cache over a contiguous LBA range.

    Parameters
    ----------
    device:
        FDP-aware device layer the engine submits I/O through.
    handle:
        Placement handle tagging every SOC write (allocated by the
        placement-handle allocator at cache initialization).
    base_lba:
        First LBA of the SOC's flash slice.
    num_buckets:
        Bucket count; the SOC occupies ``num_buckets`` pages starting
        at ``base_lba`` (bucket size == page size).

    Every rewrite writes the bucket header (generation + manifest) into
    the out-of-band area, so :meth:`recover` can warm-restart after a
    power cut.
    """

    def __init__(
        self,
        device: FdpAwareDevice,
        handle: PlacementHandle,
        base_lba: int,
        num_buckets: int,
    ) -> None:
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        if base_lba < 0:
            raise ValueError("base_lba must be non-negative")
        self.device = device
        self.handle = handle
        self.base_lba = base_lba
        self.num_buckets = num_buckets
        self.bucket_size = device.ssd.page_size
        self.usable_bucket_bytes = self.bucket_size - BUCKET_HEADER_BYTES
        # Each bucket's image, oldest entry first (FIFO eviction), key ->
        # ``stored_size << BLOOM_BITS | mask``.  A rewrite puts the dict
        # itself into its payload and records it
        # in _manifests; while ``_buckets[b] is _manifests[b]`` the
        # bucket is shared, and whatever changes it (_stage, invalidate,
        # delete) replaces it with a copy first; _drop_bucket and
        # recover replace it outright.
        self._buckets: List[Dict[int, int]] = [{} for _ in range(num_buckets)]
        self._manifests: List[Optional[Dict[int, int]]] = [None] * num_buckets
        self._used: List[int] = [0] * num_buckets
        self._blooms: List[BloomFilter] = [
            BloomFilter(BLOOM_BITS, BLOOM_HASHES) for _ in range(num_buckets)
        ]
        # The manifest of a successful rewrite whose bloom no lookup has
        # read yet: lookup builds the filter from it, then sets None.
        self._pending_blooms: List[Optional[Dict[int, int]]] = [None] * num_buckets
        # The key index: key -> bloom mask, for exactly the resident
        # keys (``key in _masks`` iff ``key in _buckets[bucket_of(key)]``),
        # so ``contains``, ``invalidate`` and ``delete`` answer for an
        # absent key without its fingerprint.  Written only where a key
        # enters or is evicted (_stage, recover) or leaves otherwise
        # (_drop_bucket, invalidate, delete).
        self._masks: Dict[int, int] = {}
        # The fingerprint table: the last key at each slot ``key & _slot``,
        # mod 2**64 (all ``splitmix64`` reads), and its fingerprint.  Slot
        # i starts with key i + 1, another slot's, so it matches no key.
        slots = min(_FP_MAX_SLOTS, 1 << (_FP_SLOTS_PER_BUCKET * num_buckets - 1).bit_length())
        self._slot = slots - 1
        self._fp_keys = array("Q", range(1, slots + 1))
        self._fps = array("Q", [0]) * slots
        # Per-bucket rewrite generation, part of the on-flash header.
        self._generations: List[int] = [0] * num_buckets
        # engine statistics
        self.inserts = 0
        self.lookups = 0
        self.hits = 0
        self.evictions = 0
        self.bloom_rejects = 0
        self.flash_reads = 0
        self.flash_writes = 0
        self.app_bytes_written = 0
        self.ssd_bytes_written = 0
        # Media-failure degradation counters (CacheLib: an NVM error is
        # a miss/drop, never an exception to the caller).
        self.read_errors = 0
        self.write_errors = 0
        self.write_drops = 0

    # ------------------------------------------------------------------

    def bucket_of(self, key: int) -> int:
        """Uniform hash placement of a key (Appendix A's assumption)."""
        return self._fingerprint(key) >> _PROBE_BITS

    def _fingerprint(self, key: int) -> int:
        """``key``'s bucket (``splitmix64(key) % num_buckets``) and mask
        index (``bloom_mask``'s, in _MASKS), packed: from its table slot,
        or hashed and put there.  ``lookup`` has this in line."""
        slot = key & self._slot
        if self._fp_keys[slot] == key:
            return self._fps[slot]
        h1 = splitmix64(key)
        probe = h1 % BLOOM_BITS * BLOOM_BITS + (splitmix64(h1) | 1) % BLOOM_BITS
        fp = self._fps[slot] = h1 % self.num_buckets << _PROBE_BITS | probe
        self._fp_keys[slot] = key & 0xFFFF_FFFF_FFFF_FFFF
        return fp

    def accepts(self, item: CacheItem) -> bool:
        """Whether the item physically fits in a bucket."""
        return item.size + ITEM_HEADER_BYTES <= self.usable_bucket_bytes  # stored_size

    def contains(self, key: int) -> bool:
        """Ground-truth membership (no I/O charged; used internally)."""
        return key in self._masks

    def resident_items(self) -> Dict[int, int]:
        """key → logical size snapshot across all buckets (no I/O)."""
        out: Dict[int, int] = {}
        for entries in self._buckets:
            for key, packed in entries.items():
                out[key] = (packed >> BLOOM_BITS) - ITEM_HEADER_BYTES
        return out

    # ------------------------------------------------------------------

    def _drop_bucket(self, bucket: int) -> int:
        """Discard a bucket's contents and clear its bloom filter.

        Invoked when the bucket's flash page is unreadable or a rewrite
        failed: the in-memory ground truth no longer matches flash, so
        the safe degraded state is an empty bucket whose bloom rejects
        every key (no stale "maybe" answers against a dead page).
        Returns the number of entries dropped.
        """
        entries = self._buckets[bucket]
        for key in entries:
            del self._masks[key]
        self._buckets[bucket] = {}
        self._used[bucket] = 0
        self._pending_blooms[bucket] = None
        self._blooms[bucket].clear()
        return len(entries)

    def _stage(self, bucket: int, masked: Iterable[Tuple[CacheItem, int]]) -> None:
        """Put items that fit a bucket (each with its key's bloom mask)
        at the tail of the bucket's in-memory image, in order, replacing
        older copies; then evict FIFO until the image fits its page."""
        entries = self._buckets[bucket]
        if entries is self._manifests[bucket]:
            entries = self._buckets[bucket] = dict(entries)  # unshare
        masks = self._masks
        used = self._used[bucket]
        for item, mask in masked:
            key = item.key
            old = entries.pop(key, None)
            if old is None:
                masks[key] = mask
            else:
                used -= old >> BLOOM_BITS
            nbytes = item.size + ITEM_HEADER_BYTES
            entries[key] = nbytes << BLOOM_BITS | mask
            used += nbytes
        while used > self.usable_bucket_bytes:
            key = next(iter(entries))
            used -= entries.pop(key) >> BLOOM_BITS
            del masks[key]
            self.evictions += 1
        self._used[bucket] = used

    def _write_bucket(self, bucket: int, now_ns: int) -> int:
        """Rewrite a whole bucket page on flash; its bloom is built from
        the manifest at the next lookup.

        A media failure (the device layer exhausted its write retries)
        drops the bucket rather than raising: the engine keeps serving,
        the lost entries simply re-enter as misses later.
        """
        # The on-flash header of this generation; its manifest is the
        # bucket's dict, shared from now on.
        manifest = self._manifests[bucket] = self._buckets[bucket]
        self._generations[bucket] += 1
        payload = ("soc", bucket, self._generations[bucket], manifest)
        try:
            done = self.device.write(
                self.base_lba + bucket, 1, self.handle, now_ns, "soc", payload
            )
        except MediaError:
            self.write_errors += 1
            self.write_drops += self._drop_bucket(bucket)
            return now_ns
        self.flash_writes += 1
        self.ssd_bytes_written += self.bucket_size
        self._pending_blooms[bucket] = manifest
        return done

    def insert(self, item: CacheItem, now_ns: int = 0) -> Tuple[bool, int]:
        """Insert an item; returns ``(admitted, completion_ns)``.

        An insert that does not fit any bucket (item too large) is
        rejected without I/O; the hybrid cache routes such items to the
        LOC instead via its size threshold.
        """
        nbytes = item.size + ITEM_HEADER_BYTES  # item.stored_size, no frame
        if nbytes > self.usable_bucket_bytes:
            return False, now_ns
        fp = self._fingerprint(item.key)
        bucket = fp >> _PROBE_BITS
        self._stage(bucket, ((item, _MASKS[fp & _PROBE]),))
        done = self._write_bucket(bucket, now_ns)
        self.inserts += 1
        self.app_bytes_written += item.size
        return True, done

    def insert_many_batched(
        self, batches: List[List[CacheItem]], now_ns: int = 0
    ) -> Tuple[int, int]:
        """Move several buckets' worth of items with one batched submit.

        This is the primitive a Kangaroo-style log front needs: moving
        a batch of staged items into their set costs one bucket rewrite
        instead of one per item.  Each element of ``batches`` is an item
        list that shares one bucket; groups of one bucket merge, in
        order, into one rewrite (else a second could land after the first
        failed and dropped the bucket, and the page would hold keys the
        engine no longer has).  All buckets are staged in memory first,
        then the rewrites go down as *one*
        :meth:`~repro.core.device_layer.FdpAwareDevice.submit_batch`
        call so the per-command Python overhead is paid once.  The
        device busy clock serializes the page programs in submission
        order, so completion times — and every counter — match one
        :meth:`_write_bucket` per bucket exactly.  Per-command outcomes
        preserve the scalar degradation path: a bucket whose rewrite
        fails is dropped (:meth:`_drop_bucket`) while the rest of the
        batch lands.  Returns ``(admitted, completion_ns)``; ``admitted``
        counts every item staged, a failed rewrite's too (``write_drops``
        counts those again).
        """
        groups: Dict[int, List[Tuple[CacheItem, int]]] = {}
        for items in batches:
            fps = [self._fingerprint(item.key) for item in items]
            buckets = {fp >> _PROBE_BITS for fp in fps}
            if len(buckets) > 1:
                raise ValueError("a batch of items must share one bucket")
            if buckets:
                groups.setdefault(buckets.pop(), []).extend(
                    (item, _MASKS[fp & _PROBE]) for item, fp in zip(items, fps)
                )
        staged: List[Tuple[int, int, Dict[int, int]]] = []
        commands: List[Tuple] = []
        usable = self.usable_bucket_bytes - ITEM_HEADER_BYTES
        for bucket, masked in groups.items():
            fits = [(item, mask) for item, mask in masked if item.size <= usable]
            if not fits:
                continue
            self._stage(bucket, fits)
            self.app_bytes_written += sum(item.size for item, _ in fits)
            admitted = len(fits)
            manifest = self._manifests[bucket] = self._buckets[bucket]
            self._generations[bucket] += 1
            payload = ("soc", bucket, self._generations[bucket], manifest)
            staged.append((bucket, admitted, manifest))
            commands.append(("write", self.base_lba + bucket, 1, self.handle, payload))
        if not staged:
            return 0, now_ns
        outcomes = self.device.submit_batch(commands, now_ns, worker="soc")
        done = now_ns
        total = 0
        for (bucket, admitted, manifest), outcome in zip(staged, outcomes):
            if outcome.ok:
                done = outcome.value
                self.flash_writes += 1
                self.ssd_bytes_written += self.bucket_size
                self._pending_blooms[bucket] = manifest
            else:
                # Same degradation as _write_bucket: the rewrite failed,
                # flash no longer matches memory, drop the bucket.
                self.write_errors += 1
                self.write_drops += self._drop_bucket(bucket)
            self.inserts += admitted
            total += admitted
        return total, done

    def lookup(self, key: int, now_ns: int = 0) -> Tuple[Optional[CacheItem], int]:
        """Look up a key; returns ``(item_or_None, completion_ns)``.

        A bloom reject answers from DRAM; otherwise one page read is
        charged whether the key is present or the bloom lied.
        """
        self.lookups += 1
        slot = key & self._slot
        if self._fp_keys[slot] == key:
            fp = self._fps[slot]
        else:  # _fingerprint's body: one frame fewer on a GET
            h1 = splitmix64(key)
            probe = h1 % BLOOM_BITS * BLOOM_BITS + (splitmix64(h1) | 1) % BLOOM_BITS
            fp = self._fps[slot] = h1 % self.num_buckets << _PROBE_BITS | probe
            self._fp_keys[slot] = key & 0xFFFF_FFFF_FFFF_FFFF
        bucket = fp >> _PROBE_BITS
        packed = self._buckets[bucket].get(key)
        bloom = self._blooms[bucket]
        manifest = self._pending_blooms[bucket]
        if manifest is not None:
            # The first read since the bucket's rewrite builds its bloom
            # from the masks packed in that rewrite's manifest.
            self._pending_blooms[bucket] = None
            bloom.rebuild(manifest.values())
        if not bloom.may_contain(key, _MASKS[fp & _PROBE]):
            self.bloom_rejects += 1
            return None, now_ns
        try:
            mapped, done = self.device.read(
                self.base_lba + bucket, 1, now_ns, worker="soc"
            )
        except MediaError:
            # UECC survived the device layer's read retries: the page is
            # gone.  Serve a miss and drop the bucket so its bloom stops
            # steering lookups at the dead page.
            self.read_errors += 1
            self._drop_bucket(bucket)
            return None, now_ns
        if not mapped:
            # The page unmapped underneath us — an end-to-end CRC check
            # (host read retry or patrol scrub) poisoned it.  Same
            # degradation as a UECC: miss, and clean up the bloom.
            self.read_errors += 1
            self._drop_bucket(bucket)
            return None, done
        self.flash_reads += 1
        if packed is None:
            return None, done
        self.hits += 1
        size = (packed >> BLOOM_BITS) - ITEM_HEADER_BYTES
        return tuple.__new__(CacheItem, (key, size)), done

    def invalidate(self, key: int) -> bool:
        """Drop a key without rewriting the bucket.

        Used when a SET supersedes the flash copy: the stale bytes stay
        on flash until the bucket's next rewrite (and the bloom filter
        may keep answering "maybe" — a tolerated false positive), but
        the entry is unreachable.  Mirrors CacheLib invalidating the
        NVM copy on mutation without issuing I/O.
        """
        if self._masks.pop(key, None) is None:
            return False
        bucket = self._fingerprint(key) >> _PROBE_BITS
        entries = self._buckets[bucket]
        if entries is self._manifests[bucket]:
            entries = self._buckets[bucket] = dict(entries)  # unshare
        self._used[bucket] -= entries.pop(key) >> BLOOM_BITS
        return True

    def delete(self, key: int, now_ns: int = 0) -> Tuple[bool, int]:
        """Remove a key; a removal rewrites the bucket (as CacheLib does)."""
        if self._masks.pop(key, None) is None:
            return False, now_ns
        bucket = self._fingerprint(key) >> _PROBE_BITS
        entries = self._buckets[bucket]
        if entries is self._manifests[bucket]:
            entries = self._buckets[bucket] = dict(entries)  # unshare
        self._used[bucket] -= entries.pop(key) >> BLOOM_BITS
        return True, self._write_bucket(bucket, now_ns)

    # ------------------------------------------------------------------
    # warm restart
    # ------------------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Rebuild bucket contents and the key index from flash headers.

        Call after the device's power-on recovery.  A bucket is kept
        only when its page survived and carries a verifying header for
        that bucket number — a torn rewrite leaves either the previous
        generation (recovered) or nothing (dropped, bloom cleared).
        Returns counters: ``buckets_recovered``, ``buckets_dropped``,
        ``items_recovered``.
        """
        recovered = dropped = items = 0
        masks = self._masks
        for bucket in range(self.num_buckets):
            had_entries = self._drop_bucket(bucket) > 0
            payload = self.device.read_payload(self.base_lba + bucket, 1)[0]
            valid = (
                isinstance(payload, tuple)
                and len(payload) == 4
                and payload[0] == "soc"
                and payload[1] == bucket
            )
            if valid:
                _, _, generation, manifest = payload
                self._generations[bucket] = generation
                # The verified manifest is the bucket again, shared with
                # its page, and the next lookup builds its bloom.
                self._buckets[bucket] = self._manifests[bucket] = manifest
                self._pending_blooms[bucket] = manifest
                self._used[bucket] = sum(p >> BLOOM_BITS for p in manifest.values())
                for key, packed in manifest.items():
                    masks[key] = packed & (1 << BLOOM_BITS) - 1
                recovered += 1
                items += len(manifest)
            elif had_entries or payload is not None:
                dropped += 1
        return {
            "buckets_recovered": recovered,
            "buckets_dropped": dropped,
            "items_recovered": items,
        }

    # ------------------------------------------------------------------

    @property
    def item_count(self) -> int:
        """Items currently cached (O(buckets))."""
        return sum(len(b) for b in self._buckets)

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
