"""Cache item descriptor.

The simulator tracks object *metadata* only (key and size); values are
never materialized because no reproduced metric depends on the bytes
themselves — DLWA, hit ratios, ALWA, and latency all derive from which
pages are written and when.

An item is a plain immutable ``(key, size)`` tuple.  The hot paths
(``HybridCache.set`` and the engines' hit paths) build one with
``tuple.__new__(CacheItem, (key, size))``, a C call with no Python
frame; they check the size themselves, as the constructor does.
"""

from __future__ import annotations

import dataclasses
from collections import namedtuple

__all__ = ["CacheItem", "ITEM_HEADER_BYTES"]

# Per-item on-flash overhead (key descriptor + small header), matching
# the order of magnitude CacheLib stores alongside each object.
ITEM_HEADER_BYTES = 24


class CacheItem(namedtuple("_CacheItemFields", "key size")):
    """An object identified by an integer key with a payload size.

    Frozen, hashed as ``(key, size)``, and equal only to another
    ``CacheItem``: a bare tuple subclass would compare equal to
    ``(key, size)`` through the reflected ``tuple.__eq__``, so ``__eq__``
    answers ``False`` rather than ``NotImplemented``.
    """

    __slots__ = ()

    def __new__(cls, key: int, size: int) -> "CacheItem":
        if size <= 0:
            raise ValueError("item size must be positive")
        return tuple.__new__(cls, (key, size))

    def __setattr__(self, name: str, value: object) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        return other.__class__ is CacheItem and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    @property
    def stored_size(self) -> int:
        """Bytes the item occupies on flash including its header."""
        return self.size + ITEM_HEADER_BYTES
