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
payload always reads what its rewrite wrote.  Because a bucket is one
NAND page and page programs are atomic-or-torn, a power cut
mid-rewrite leaves either the previous generation (old header
verifies, old contents recovered) or a torn page (header check fails,
bucket comes back empty).  :meth:`SmallObjectCache.recover` re-reads
every bucket header after the device's power-on recovery, restores
contents from verified headers, and drops the rest — no stale "maybe"
answers against pages that did not survive.

A bucket's bloom filter answers for its last rewrite's manifest, but
is built only when read: the first lookup after a rewrite (or a
recovery) builds it, so a rewrite that no lookup follows costs no
filter at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.device_layer import FdpAwareDevice
from ..core.placement import PlacementHandle
from ..faults.errors import MediaError
from .bloom import BloomFilter, bloom_mask, splitmix64
from .item import ITEM_HEADER_BYTES, CacheItem

__all__ = ["SmallObjectCache", "BUCKET_HEADER_BYTES"]


# Bucket-level metadata stored on flash (generation, checksum, count).
BUCKET_HEADER_BYTES = 16
# Per-bucket bloom filter shape: bits and hash functions.
BLOOM_BITS = 64
BLOOM_HASHES = 4


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
        # Each bucket's image, oldest entry first (FIFO eviction).  A
        # rewrite puts the dict itself into its payload and records it
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
        # keys (``key in _masks`` iff ``key in _buckets[bucket_of(key)]``).
        # Residency is answered here without hashing, and building a
        # bucket's bloom ORs the masks instead of hashing each key again.
        # Written only where a key enters (_stage, recover) or leaves
        # (_evict_overflow, _drop_bucket, invalidate, delete).
        self._masks: Dict[int, int] = {}
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
        return splitmix64(key) % self.num_buckets

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
            for key, nbytes in entries.items():
                out[key] = nbytes - ITEM_HEADER_BYTES
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

    def _bucket_payload(self, bucket: int):
        """Build the on-flash header payload for one bucket rewrite
        (advancing its generation); its manifest is the bucket's dict,
        shared from now on."""
        entries = self._manifests[bucket] = self._buckets[bucket]
        self._generations[bucket] += 1
        return ("soc", bucket, self._generations[bucket], entries)

    def _stage(self, bucket: int, key: int, nbytes: int, h1: int) -> None:
        """Put one item (``nbytes`` stored, ``h1`` its key's
        ``splitmix64``) at the tail of a bucket's in-memory image,
        replacing an older copy."""
        entries = self._buckets[bucket]
        if entries is self._manifests[bucket]:
            entries = self._buckets[bucket] = dict(entries)  # unshare
        old = entries.pop(key, None)
        if old is None:
            self._masks[key] = bloom_mask(h1, BLOOM_BITS, BLOOM_HASHES)
        else:
            self._used[bucket] -= old
        entries[key] = nbytes
        self._used[bucket] += nbytes

    def _evict_overflow(self, bucket: int) -> None:
        """Evict FIFO until the bucket's image fits its page.  Only
        :meth:`_stage` overflows a bucket, and it has unshared it."""
        entries = self._buckets[bucket]
        while self._used[bucket] > self.usable_bucket_bytes:
            key = next(iter(entries))
            self._used[bucket] -= entries.pop(key)
            del self._masks[key]
            self.evictions += 1

    def _write_bucket(self, bucket: int, now_ns: int) -> int:
        """Rewrite a whole bucket page on flash; its bloom is built from
        the manifest at the next lookup.

        A media failure (the device layer exhausted its write retries)
        drops the bucket rather than raising: the engine keeps serving,
        the lost entries simply re-enter as misses later.
        """
        payload = self._bucket_payload(bucket)
        try:
            done = self.device.write(
                self.base_lba + bucket, 1, self.handle, now_ns,
                worker="soc", payload=payload,
            )
        except MediaError:
            self.write_errors += 1
            self.write_drops += self._drop_bucket(bucket)
            return now_ns
        self.flash_writes += 1
        self.ssd_bytes_written += self.bucket_size
        self._pending_blooms[bucket] = payload[3]
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
        h1 = splitmix64(item.key)
        bucket = h1 % self.num_buckets
        self._stage(bucket, item.key, nbytes, h1)
        self._evict_overflow(bucket)
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
            hashed = [(item, splitmix64(item.key)) for item in items]
            buckets = {h1 % self.num_buckets for _, h1 in hashed}
            if len(buckets) > 1:
                raise ValueError("a batch of items must share one bucket")
            if buckets:
                groups.setdefault(buckets.pop(), []).extend(hashed)
        staged: List[Tuple[int, int, Dict[int, int]]] = []
        commands: List[Tuple] = []
        for bucket, hashed in groups.items():
            admitted = 0
            for item, h1 in hashed:
                nbytes = item.size + ITEM_HEADER_BYTES  # item.stored_size
                if nbytes <= self.usable_bucket_bytes:
                    self._stage(bucket, item.key, nbytes, h1)
                    self.app_bytes_written += item.size
                    admitted += 1
            if admitted == 0:
                continue
            self._evict_overflow(bucket)
            payload = self._bucket_payload(bucket)
            staged.append((bucket, admitted, payload[3]))
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
        h1 = splitmix64(key)
        bucket = h1 % self.num_buckets
        mask = self._masks.get(key)
        resident = mask is not None
        if not resident:
            mask = bloom_mask(h1, BLOOM_BITS, BLOOM_HASHES)
        bloom = self._blooms[bucket]
        manifest = self._pending_blooms[bucket]
        if manifest is not None:
            # The first read since the bucket's rewrite builds its bloom
            # from that rewrite's manifest, with the masks of the index.
            self._pending_blooms[bucket] = None
            masks = self._masks
            if manifest is self._buckets[bucket]:
                bloom.rebuild(manifest, masks.__getitem__)
            else:
                # The bucket changed since: a key that left the index
                # (invalidated, or evicted by a restage whose write
                # never finished) is hashed again.
                bloom.rebuild(
                    manifest,
                    lambda k: masks.get(k)
                    or bloom_mask(splitmix64(k), BLOOM_BITS, BLOOM_HASHES),
                )
        if not bloom.may_contain(key, mask):
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
        if not resident:
            return None, done
        self.hits += 1
        nbytes = self._buckets[bucket][key]
        return CacheItem(key, nbytes - ITEM_HEADER_BYTES), done

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
        bucket = splitmix64(key) % self.num_buckets
        entries = self._buckets[bucket]
        if entries is self._manifests[bucket]:
            entries = self._buckets[bucket] = dict(entries)  # unshare
        self._used[bucket] -= entries.pop(key)
        return True

    def delete(self, key: int, now_ns: int = 0) -> Tuple[bool, int]:
        """Remove a key; a removal rewrites the bucket (as CacheLib does)."""
        if self._masks.pop(key, None) is None:
            return False, now_ns
        bucket = splitmix64(key) % self.num_buckets
        entries = self._buckets[bucket]
        if entries is self._manifests[bucket]:
            entries = self._buckets[bucket] = dict(entries)  # unshare
        self._used[bucket] -= entries.pop(key)
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
                self._used[bucket] = sum(manifest.values())
                for key in manifest:
                    masks[key] = bloom_mask(splitmix64(key), BLOOM_BITS, BLOOM_HASHES)
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
