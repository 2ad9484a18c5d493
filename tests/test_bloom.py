"""Unit tests for the per-bucket bloom filter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import BloomFilter
from repro.cache.bloom import bloom_mask, splitmix64


class TestBloomBasics:
    def test_empty_contains_nothing(self):
        bf = BloomFilter()
        assert not bf.may_contain(42)

    def test_no_false_negatives(self):
        bf = BloomFilter(bits=64, hashes=4)
        keys = list(range(1000, 1030))
        for k in keys:
            bf.add(k)
        assert all(bf.may_contain(k) for k in keys)

    def test_clear(self):
        bf = BloomFilter()
        bf.add(1)
        bf.clear()
        assert not bf.may_contain(1)

    def test_rebuild_matches_fresh(self):
        keys = [5, 9, 1_000_003]
        a = BloomFilter()
        a.rebuild(map(a.mask, keys))
        b = BloomFilter()
        for k in keys:
            b.add(k)
        assert a._field == b._field

    def test_rebuild_drops_old_keys_effect(self):
        bf = BloomFilter(bits=256, hashes=4)
        bf.add(123456789)
        bf.rebuild([bf.mask(1)])
        # With a roomy filter the dropped key should no longer match.
        assert not bf.may_contain(123456789)

    def test_false_positive_rate_reasonable(self):
        bf = BloomFilter(bits=128, hashes=4)
        for k in range(8):  # typical bucket occupancy
            bf.add(k)
        false_hits = sum(
            1 for k in range(10_000, 20_000) if bf.may_contain(k)
        )
        assert false_hits / 10_000 < 0.10

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(bits=0)
        with pytest.raises(ValueError):
            BloomFilter(hashes=0)

    def test_deterministic_across_instances(self):
        a, b = BloomFilter(), BloomFilter()
        a.add(777)
        b.add(777)
        assert a._field == b._field


# ``_field`` values computed on the commit before masks were memoized
# (PR 11): one filter per key, then all eight keys rebuilt into one.
GOLDEN_KEYS = [0, 1, 42, 777, 1_000_003, 2**31 - 1, 2**40 + 12345, 2**63 + 9]
GOLDEN_FIELDS = {
    (64, 4): (
        [
            0x1000800040002000, 0x8000000140000002, 0x1084200000, 0x21084000,
            0x401000080200, 0x2000018000040000, 0x80040020010, 0x1000020004000800,
        ],
        0xB000CB91E52E6A12,
    ),
    # A width that is not a power of two: positions come from ``% bits``.
    (100, 3): (
        [
            0x40000000000200800000000, 0x800020000000001000000,
            0x400000008000000002000, 0x1000000000400000008,
            0x4000000200000010, 0x400000000200000080,
            0x20408000000000000000000, 0x4000000008000000200,
        ],
        0x60C0D424008208E01002298,
    ),
}


def reference_positions(key, bits, hashes):
    """The probe positions as the filter computed them before masks."""
    h1 = splitmix64(key)
    h2 = splitmix64(h1) | 1
    return [(h1 + i * h2) % bits for i in range(hashes)]


class TestBloomPinned:
    @pytest.mark.parametrize("shape", sorted(GOLDEN_FIELDS))
    def test_fields_match_literals(self, shape):
        per_key, rebuilt = GOLDEN_FIELDS[shape]
        for key, field in zip(GOLDEN_KEYS, per_key):
            bf = BloomFilter(*shape)
            bf.add(key)
            assert bf._field == field
            assert bf.mask(key) == field
        bf = BloomFilter(*shape)
        bf.rebuild(map(bf.mask, GOLDEN_KEYS))
        assert bf._field == rebuilt
        assert all(bf.may_contain(k) for k in GOLDEN_KEYS)

    def test_passed_masks_equal_hashing(self):
        a, b = BloomFilter(100, 3), BloomFilter(100, 3)
        for key in GOLDEN_KEYS:
            a.add(key)
        # Bits above the width (where the SOC packs a stored size) drop.
        b.rebuild(b.mask(k) | (k + 1) << 100 for k in GOLDEN_KEYS)
        assert a._field == b._field
        for key in (3, 5, 8, *GOLDEN_KEYS):
            assert a.may_contain(key) == a.may_contain(key, a.mask(key))

    @settings(max_examples=300, deadline=None)
    @given(
        bits=st.integers(1, 300),
        hashes=st.integers(1, 9),
        key=st.integers(0, 2**64 - 1),
    )
    def test_mask_is_or_of_reference_positions(self, bits, hashes, key):
        expected = 0
        for pos in reference_positions(key, bits, hashes):
            expected |= 1 << pos
        assert BloomFilter(bits, hashes).mask(key) == expected
        assert bloom_mask(splitmix64(key), bits, hashes) == expected
