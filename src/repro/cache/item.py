"""Cache item descriptor.

The simulator tracks object *metadata* only (key and size); values are
never materialized because no reproduced metric depends on the bytes
themselves — DLWA, hit ratios, ALWA, and latency all derive from which
pages are written and when.
"""

from __future__ import annotations

import dataclasses

__all__ = ["CacheItem", "ITEM_HEADER_BYTES"]

# Per-item on-flash overhead (key descriptor + small header), matching
# the order of magnitude CacheLib stores alongside each object.
ITEM_HEADER_BYTES = 24


class CacheItem:
    """An object identified by an integer key with a payload size.

    An immutable value, hand-written: one is built per SET and per
    flash hit (DRAM keeps and hands back the object it was given), and
    a frozen dataclass's ``__init__`` costs twice this.
    """

    __slots__ = ("key", "size")

    def __init__(self, key: int, size: int) -> None:
        if size <= 0:
            raise ValueError("item size must be positive")
        _set_key(self, key)
        _set_size(self, size)

    def __setattr__(self, name: str, value: object) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CacheItem:
            return NotImplemented
        return self.key == other.key and self.size == other.size

    def __hash__(self) -> int:
        return hash((self.key, self.size))

    def __repr__(self) -> str:
        return f"CacheItem(key={self.key!r}, size={self.size!r})"

    def __reduce__(self):
        return CacheItem, (self.key, self.size)

    @property
    def stored_size(self) -> int:
        """Bytes the item occupies on flash including its header."""
        return self.size + ITEM_HEADER_BYTES


# The slot setters, for ``__init__``: the class's ``__setattr__`` refuses.
_set_key = CacheItem.key.__set__
_set_size = CacheItem.size.__set__
