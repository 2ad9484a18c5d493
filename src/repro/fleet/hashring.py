"""Consistent-hash routing across cache shards.

The fleet's placement function: every key maps to exactly one shard,
the mapping is a pure function of ``(ring seed, membership)`` — never
of insertion order, dict iteration, or process — and membership
changes move the minimum possible set of keys:

* **removal** of one shard moves *only* the keys that shard owned
  (every other key keeps its owner — the bounded-movement invariant
  tests/test_fleet_hashring.py proves with Hypothesis);
* **addition** of one shard steals keys only for the vnode arcs it
  claims, ~``K/N`` of the keyspace in expectation.

Hashing is SHA-256 (first 8 bytes), the same primitive as the bench
harness's ``point_seed`` contract, so routing is stable across runs,
machines, and worker schedules: two processes that build the same
``(seed, membership)`` ring route every key identically.

A key's owner is hashed out once and remembered: the ring keeps a
key → owner memo that is a pure cache of the SHA-256 placement (a
memoized ring answers exactly as a freshly built ring of the same
``(seed, membership)`` would).  :meth:`ConsistentHashRouter._rebuild`
is the one place membership changes and the one place the memo is
cleared.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from heapq import merge
from typing import Dict, Iterable, List, Tuple

__all__ = ["ConsistentHashRouter"]

# Owners remembered before the memo starts over (it is a cache: dropping
# it only costs re-hashing).  Far above any trace's distinct keys here,
# so memory is bounded without an eviction order to maintain.
_MEMO_MAX_KEYS = 1 << 20


def _h64(data: str) -> int:
    """First 8 bytes of sha256 as an unsigned 64-bit ring position."""
    return _first_u64(hashlib.sha256(data.encode("utf-8")).digest())[0]


_first_u64 = struct.Struct(">Q").unpack_from


class ConsistentHashRouter:
    """A classic virtual-node consistent-hash ring over shard ids.

    Parameters
    ----------
    shard_ids:
        Initial membership (order-insensitive; the ring sorts points).
    vnodes:
        Virtual nodes per shard.  More vnodes → more uniform ownership
        arcs (64 keeps the max/mean ownership skew small while the
        ring stays tiny).
    seed:
        Namespaces every hash, so two fleets with the same shard names
        but different seeds route independently.
    """

    def __init__(
        self,
        shard_ids: Iterable[str] = (),
        *,
        vnodes: int = 64,
        seed: int = 0,
    ) -> None:
        if vnodes <= 0:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self.seed = seed
        # Each member's sorted vnode points, hashed once when it joins.
        self._member_points: Dict[str, List[Tuple[int, str]]] = {}
        self._points: List[Tuple[int, str]] = []
        self._keys: List[int] = []  # bisect view of _points
        self._owners: Dict[int, str] = {}  # key -> owner memo
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # ------------------------------------------------------------------

    def _vnode_points(self, shard_id: str) -> List[Tuple[int, str]]:
        return sorted(
            (_h64(f"{self.seed}:vnode:{shard_id}:{replica}"), shard_id)
            for replica in range(self.vnodes)
        )

    def _rebuild(self) -> None:
        """Re-merge the ring after a membership change; forget owners."""
        self._points = list(merge(*self._member_points.values()))
        self._keys = [p for p, _ in self._points]
        self._owners.clear()

    # ------------------------------------------------------------------

    def add_shard(self, shard_id: str) -> None:
        if not shard_id:
            raise ValueError("shard_id must be non-empty")
        if shard_id in self._member_points:
            raise ValueError(f"shard {shard_id!r} already in the ring")
        self._member_points[shard_id] = self._vnode_points(shard_id)
        self._rebuild()

    def remove_shard(self, shard_id: str) -> None:
        try:
            del self._member_points[shard_id]
        except KeyError:
            raise KeyError(f"shard {shard_id!r} not in the ring") from None
        self._rebuild()

    # ------------------------------------------------------------------

    def route(self, key: int) -> str:
        """The shard owning ``key`` (successor vnode on the ring)."""
        owner = self._owners.get(key)
        if owner is None:
            if not self._points:
                raise KeyError("the ring is empty")
            h = _h64(f"{self.seed}:key:{key}")
            idx = bisect.bisect_right(self._keys, h)
            if idx == len(self._points):  # wrap past the top of the ring
                idx = 0
            owner = self._points[idx][1]
            if len(self._owners) >= _MEMO_MAX_KEYS:
                self._owners.clear()
            self._owners[key] = owner
        return owner

    # ------------------------------------------------------------------

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        """Current membership, sorted."""
        return tuple(sorted(self._member_points))

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._member_points

    def __len__(self) -> int:
        return len(self._member_points)
