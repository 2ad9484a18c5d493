"""Unit tests for workload generators and the trace container."""

import numpy as np
import pytest

from repro.workloads import (
    OP_GET,
    OP_NAMES,
    OP_SET,
    SynthSpec,
    Trace,
    ZipfSampler,
    key_uniform,
    kv_cache_trace,
    loguniform_sizes,
    synthesize,
    twitter_cluster12_trace,
    wo_kv_cache_trace,
)


class TestZipfSampler:
    def test_ranks_in_range(self):
        s = ZipfSampler(1000, 1.0, seed=1)
        ranks = s.sample(10_000)
        assert ranks.min() >= 0
        assert ranks.max() < 1000

    def test_rank0_most_popular(self):
        s = ZipfSampler(1000, 1.0, seed=1)
        ranks = s.sample(50_000)
        counts = np.bincount(ranks, minlength=1000)
        assert counts[0] == counts.max()

    def test_skew_increases_with_alpha(self):
        flat = ZipfSampler(1000, 0.0, seed=2).sample(50_000)
        skewed = ZipfSampler(1000, 1.2, seed=2).sample(50_000)
        assert np.bincount(skewed, minlength=1000)[0] > (
            np.bincount(flat, minlength=1000)[0] * 3
        )

    def test_alpha_zero_is_uniform(self):
        s = ZipfSampler(100, 0.0, seed=3)
        counts = np.bincount(s.sample(100_000), minlength=100)
        assert counts.min() > 700  # roughly uniform, ~1000 each

    def test_probability_sums_to_one(self):
        s = ZipfSampler(50, 0.9)
        total = sum(s.probability(r) for r in range(50))
        assert total == pytest.approx(1.0)

    def test_deterministic_with_seed(self):
        a = ZipfSampler(100, 1.0, seed=9).sample(100)
        b = ZipfSampler(100, 1.0, seed=9).sample(100)
        assert (a == b).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0)
        with pytest.raises(ValueError):
            ZipfSampler(10, 1.0).sample(-1)


class TestSizeHelpers:
    def test_key_uniform_deterministic(self):
        keys = np.arange(100, dtype=np.int64)
        assert (key_uniform(keys) == key_uniform(keys)).all()

    def test_key_uniform_salt_changes_values(self):
        keys = np.arange(100, dtype=np.int64)
        assert not (key_uniform(keys, 1) == key_uniform(keys, 2)).all()

    def test_loguniform_range(self):
        u = np.linspace(0, 1, 1000)
        sizes = loguniform_sizes(u, 100, 10_000)
        assert sizes.min() >= 100
        assert sizes.max() <= 10_000

    def test_loguniform_validation(self):
        with pytest.raises(ValueError):
            loguniform_sizes(np.array([0.5]), 0, 10)


class TestSynth:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec("x", num_ops=0, num_keys=10, get_fraction=0.5)
        with pytest.raises(ValueError):
            SynthSpec("x", num_ops=10, num_keys=10, get_fraction=1.5)
        with pytest.raises(ValueError):
            SynthSpec(
                "x", num_ops=10, num_keys=10, get_fraction=0.5,
                churn_fraction=2.0,
            )

    def test_sizes_deterministic_per_key(self):
        trace = synthesize(
            SynthSpec("x", num_ops=50_000, num_keys=1000, get_fraction=0.5)
        )
        seen = {}
        for op, key, size in trace:
            assert seen.setdefault(key, size) == size

    def test_churn_introduces_new_keys(self):
        spec = SynthSpec(
            "x",
            num_ops=100_000,
            num_keys=10_000,
            get_fraction=0.5,
            churn_fraction=0.5,
        )
        trace = synthesize(spec)
        early = set(trace.keys[:10_000].tolist())
        late = set(trace.keys[-10_000:].tolist())
        assert late - early  # new keys appeared


class TestGenerators:
    def test_kv_cache_ratio(self):
        trace = kv_cache_trace(100_000, 10_000)
        assert 3.5 < trace.get_set_ratio() < 4.5

    def test_twitter_ratio_inverted(self):
        trace = twitter_cluster12_trace(100_000, 10_000)
        assert trace.get_set_ratio() < 0.3  # SET-dominant

    def test_wo_kv_cache_is_set_only(self):
        trace = wo_kv_cache_trace(50_000, 10_000)
        assert len(trace) == 50_000
        assert trace.op_counts() == {"set": 50_000}

    @pytest.mark.parametrize(
        "num_ops,seed,short", [(100_000, 4, 99_934), (200_000, 6, 199_576)]
    )
    def test_wo_kv_cache_tops_up_a_short_stream(self, num_ops, seed, short):
        """Regression: on these seeds the fixed oversample margin came
        back ``short`` of the count asked for.  The top-up appends, so
        the ops that were returned before are a prefix."""
        trace = wo_kv_cache_trace(num_ops, 50_000, seed=seed)
        assert len(trace) == num_ops
        assert trace.op_counts() == {"set": num_ops}
        assert int(trace.sizes.min()) > 0
        # What came back before: the SETs of the one oversampled stream.
        raw = kv_cache_trace(
            int(num_ops / (1.0 - 0.8)) + 1024, 50_000, seed=seed
        )
        sets = raw.ops == OP_SET
        assert int(sets.sum()) == short
        np.testing.assert_array_equal(trace.keys[:short], raw.keys[sets])
        np.testing.assert_array_equal(trace.sizes[:short], raw.sizes[sets])

    @pytest.mark.parametrize("get_fraction", [1.0, 1.5])
    def test_wo_kv_cache_refuses_a_stream_with_no_sets(self, get_fraction):
        """Regression: ``get_fraction=1.0`` oversampled by 1e9 and asked
        numpy for ``num_ops * 1e9`` rows (``MemoryError``)."""
        with pytest.raises(ValueError, match="get_fraction"):
            wo_kv_cache_trace(100_000, 10_000, get_fraction=get_fraction)

    def test_small_objects_dominate_ops(self):
        trace = kv_cache_trace(50_000, 10_000)
        small = (trace.sizes <= 2000).sum()
        assert small / len(trace) > 0.75

    def test_large_objects_dominate_bytes(self):
        trace = kv_cache_trace(50_000, 10_000)
        large_bytes = trace.sizes[trace.sizes > 2000].sum()
        assert large_bytes / trace.sizes.sum() > 0.5

    def test_reproducible_with_seed(self):
        a = kv_cache_trace(10_000, 1000, seed=7)
        b = kv_cache_trace(10_000, 1000, seed=7)
        assert (a.keys == b.keys).all() and (a.ops == b.ops).all()

    def test_different_seeds_differ(self):
        a = kv_cache_trace(10_000, 1000, seed=7)
        b = kv_cache_trace(10_000, 1000, seed=8)
        assert not (a.keys == b.keys).all()


class TestTraceContainer:
    def test_length_consistency_enforced(self):
        with pytest.raises(ValueError):
            Trace(
                np.zeros(3, dtype=np.uint8),
                np.zeros(2, dtype=np.int64),
                np.ones(3, dtype=np.int64),
            )

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Trace(
                np.zeros(2, dtype=np.uint8),
                np.zeros(2, dtype=np.int64),
                np.array([1, 0]),
            )

    def test_rejects_unknown_ops(self):
        with pytest.raises(ValueError):
            Trace(
                np.array([9], dtype=np.uint8),
                np.zeros(1, dtype=np.int64),
                np.ones(1, dtype=np.int64),
            )

    def test_op_codes_have_no_gap(self):
        """What lets ``Trace`` validate a column by its maximum."""
        assert sorted(OP_NAMES) == list(range(len(OP_NAMES)))

    def test_iteration(self):
        t = Trace(
            np.array([OP_GET, OP_SET], dtype=np.uint8),
            np.array([1, 2]),
            np.array([10, 20]),
        )
        assert list(t) == [(OP_GET, 1, 10), (OP_SET, 2, 20)]

    def test_slice(self):
        t = kv_cache_trace(1000, 100)
        part = t.slice(100, 200)
        assert len(part) == 100
        assert (part.keys == t.keys[100:200]).all()

    def test_save_load_roundtrip(self, tmp_path):
        t = kv_cache_trace(500, 100)
        path = tmp_path / "trace.csv.gz"
        t.save(path)
        loaded = Trace.load(path)
        assert (loaded.ops == t.ops).all()
        assert (loaded.keys == t.keys).all()
        assert (loaded.sizes == t.sizes).all()

    def test_unique_keys(self):
        t = Trace(
            np.zeros(4, dtype=np.uint8),
            np.array([1, 1, 2, 3]),
            np.ones(4, dtype=np.int64),
        )
        assert t.unique_keys() == 3
