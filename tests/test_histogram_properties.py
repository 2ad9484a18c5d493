"""Property-based tests for LatencyHistogram (Hypothesis).

The fail-slow soak's verdicts hang off fleet-merged percentile reads,
so the histogram algebra gets property coverage, not just examples:

* ``percentile(p)`` is monotone non-decreasing in ``p``;
* ``record(v)`` adds one count at ``bucket_index(v)``, whose bucket
  covers ``v``;
* ``merge`` is commutative and associative (bucket counts and every
  scalar — count, sum, min, max);
* merging per-shard histograms is exactly the histogram of the
  concatenated observations — the identity the fleet's
  ``merged_histogram`` aggregation silently relies on.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import Scale
from repro.fleet import FleetCache, FleetConfig, ShardSpec
from repro.ssd.sched import LatencyHistogram

# Latencies from exact sub-bucket territory up past the geometric
# octaves (the soak sees ~60 us reads and ~120 ms stalled GC).
latencies = st.lists(
    st.integers(min_value=0, max_value=1_000_000_000),
    min_size=0,
    max_size=200,
)
percentiles = st.floats(min_value=0.0, max_value=100.0)


def build(values):
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    return hist


def image(hist):
    """Everything merge() must preserve, as one comparable value."""
    return (hist.counts, hist.count, hist.sum_ns, hist.min_ns, hist.max_ns)


@given(latencies, percentiles, percentiles)
def test_percentile_monotone_in_p(values, p_lo, p_hi):
    hist = build(values)
    if p_lo > p_hi:
        p_lo, p_hi = p_hi, p_lo
    assert hist.percentile(p_lo) <= hist.percentile(p_hi)


@given(latencies)
def test_percentile_bounds_contain_observations(values):
    hist = build(values)
    if values:
        assert hist.percentile(100.0) >= max(values)
        assert hist.percentile(0.0) >= 0
    else:
        assert hist.percentile(50.0) == 0


@given(latencies, st.integers(min_value=0, max_value=2**63))
def test_record_counts_one_at_bucket_index(values, v):
    """``record`` inlines ``bucket_index``; the two must agree on every
    value, and the bucket a value lands in must cover it."""
    hist = build(values)
    before = dict(hist.counts)
    hist.record(v)
    idx = LatencyHistogram.bucket_index(v)
    assert hist.counts == {**before, idx: before.get(idx, 0) + 1}
    assert LatencyHistogram.bucket_upper_bound(idx) >= v


@given(latencies, latencies)
def test_merge_commutative(a_values, b_values):
    ab = build(a_values)
    ab.merge(build(b_values))
    ba = build(b_values)
    ba.merge(build(a_values))
    assert image(ab) == image(ba)


@given(latencies, latencies, latencies)
def test_merge_associative(a_values, b_values, c_values):
    left = build(a_values)
    left.merge(build(b_values))
    left.merge(build(c_values))
    bc = build(b_values)
    bc.merge(build(c_values))
    right = build(a_values)
    right.merge(bc)
    assert image(left) == image(right)


@given(latencies, latencies)
def test_merge_equals_concatenation(a_values, b_values):
    merged = build(a_values)
    merged.merge(build(b_values))
    assert image(merged) == image(build(a_values + b_values))


@given(latencies, percentiles)
def test_merged_percentile_within_partition_range(values, p):
    """A merged percentile never escapes the partitions' [min, max]."""
    if not values:
        return
    half = len(values) // 2
    merged = build(values[:half])
    merged.merge(build(values[half:]))
    assert merged.percentile(p) <= merged.percentile(100.0)
    assert merged.percentile(100.0) >= max(values)


# ----------------------------------------------------------------------
# fleet aggregation regression (example-based, real devices)
# ----------------------------------------------------------------------


@settings(deadline=None, max_examples=1)  # expensive: real devices
@given(st.just(None))
def test_fleet_merged_histogram_is_sum_of_shards(_):
    scale = Scale(num_superblocks=48, num_ops=1_000)
    fleet = FleetCache(
        [ShardSpec(f"shard{i:02d}", scale=scale).build() for i in range(2)],
        FleetConfig(),
    )
    fleet.clear_histograms()
    # Enough SETs to spill the early keys out of DRAM onto flash, then
    # read those back so the device-side read histograms fill.
    for key in range(2_000):
        fleet.set(key, 4096)
    for key in range(400):
        fleet.get(key)
    merged = fleet.merged_histogram("read")
    parts = [s.merged_histogram("read") for s in fleet.live_shards]
    assert merged.count == sum(p.count for p in parts) > 0
    assert merged.sum_ns == sum(p.sum_ns for p in parts)
    by_hand = LatencyHistogram()
    for p in parts:
        by_hand.merge(p)
    assert image(merged) == image(by_hand)
