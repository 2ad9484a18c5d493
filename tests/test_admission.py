"""Unit tests for flash admission policies."""

import pickle

import pytest

from repro.cache import (
    AcceptAll,
    CacheItem,
    DynamicRandomAdmission,
    SizeThresholdAdmission,
    SurvivalAdmission,
    SurvivalFeatures,
)


class TestAcceptAll:
    def test_admits_everything(self):
        policy = AcceptAll()
        assert all(policy.admit(CacheItem(k, 100)) for k in range(10))
        assert policy.admit_ratio == 1.0
        assert policy.offered == 10


class TestSizeThreshold:
    def test_threshold(self):
        policy = SizeThresholdAdmission(1000)
        assert policy.admit(CacheItem(1, 1000))
        assert not policy.admit(CacheItem(2, 1001))

    def test_validation(self):
        with pytest.raises(ValueError):
            SizeThresholdAdmission(0)


class TestDynamicRandom:
    def test_throttles_to_budget(self):
        # Offered 1000 B/op against a 250 B/op budget -> ~25% accept.
        policy = DynamicRandomAdmission(250, adjust_interval=100, seed=3)
        for k in range(20_000):
            policy.admit(CacheItem(k, 1000))
        assert 0.15 < policy.admit_ratio < 0.35

    def test_underload_accepts_all(self):
        policy = DynamicRandomAdmission(10_000, adjust_interval=50)
        for k in range(2000):
            policy.admit(CacheItem(k, 100))
        assert policy.admit_ratio > 0.95

    def test_adapts_to_load_change(self):
        policy = DynamicRandomAdmission(500, adjust_interval=100, seed=5)
        for k in range(5000):
            policy.admit(CacheItem(k, 2000))  # heavy
        assert policy.probability < 0.5
        for k in range(5000):
            policy.admit(CacheItem(k, 100))  # light
        assert policy.probability == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicRandomAdmission(0)
        with pytest.raises(ValueError):
            DynamicRandomAdmission(100, adjust_interval=0)


class TestReseedContract:
    """The ``point_seed`` routing fix: randomized admission policies
    must be reseedable, and the bench builders must actually thread
    the sweep point's seed into them (two same-seed arms replay the
    exact same admission decision stream)."""

    def decisions(self, policy, n=256):
        return [policy.admit(CacheItem(k, 1000 + k % 7)) for k in range(n)]

    def test_reseed_pins_dynamic_random_stream(self):
        a = DynamicRandomAdmission(500, adjust_interval=64, seed=111)
        b = DynamicRandomAdmission(500, adjust_interval=64, seed=222)
        a.reseed(9)
        b.reseed(9)
        assert self.decisions(a, 1024) == self.decisions(b, 1024)
        c = DynamicRandomAdmission(500, adjust_interval=64)
        c.reseed(10)
        assert self.decisions(c, 1024) != self.decisions(a, 1024)

    def test_reseed_noop_on_deterministic_policies(self):
        for policy in (AcceptAll(), SizeThresholdAdmission(4096)):
            policy.reseed(123)  # must not raise or change behaviour
            assert policy.admit(CacheItem(1, 100))

    def test_config_admission_seed_reseeds_at_construction(self):
        from repro.cache import CacheConfig

        configs = [
            CacheConfig(
                admission=DynamicRandomAdmission(500, adjust_interval=64, seed=s),
                admission_seed=77,
            )
            for s in (1, 2)
        ]
        a, b = (cfg.admission for cfg in configs)
        assert self.decisions(a, 1024) == self.decisions(b, 1024)

    def test_bench_threads_point_seed_end_to_end(self):
        """Two same-seed experiment arms with a randomized admission
        policy produce identical stats dicts; the admission stream is
        genuinely random (some rejects) so the equality is earned."""
        import dataclasses

        from repro.bench import Scale, run_experiment
        from repro.bench.runner import point_seed

        scale = Scale(num_superblocks=48, num_ops=8_000)
        seed = point_seed("admission_determinism", 0)

        def arm():
            return run_experiment(
                "kvcache",
                fdp=True,
                utilization=0.9,
                scale=scale,
                seed=seed,
                cache_overrides={
                    "admission": DynamicRandomAdmission(1024, adjust_interval=64)
                },
                name="arm",
            )

        r1, r2 = arm(), arm()
        assert dataclasses.asdict(r1) == dataclasses.asdict(r2)
        assert r1.hit_ratio > 0
        assert 0 < r1.flash_admit_ratio < 1


class TestSurvivalAdmission:
    def survival(self, **kw):
        kw.setdefault("warmup_offers", 4)
        kw.setdefault("label_horizon", 64)
        kw.setdefault("max_ghosts", 32)
        kw.setdefault("seed", 7)
        return SurvivalAdmission(**kw)

    def test_warmup_admits_everything(self):
        policy = self.survival(warmup_offers=10)
        assert all(policy.admit(CacheItem(k, 100)) for k in range(10))
        assert policy.warmup_admits == 10

    def test_reaccess_within_horizon_trains_positive(self):
        policy = self.survival()
        policy.observe_insert(1, 100)
        policy.admit(CacheItem(1, 100))  # offered -> ghost
        policy.observe_access(1)  # re-requested: deserved flash
        assert policy.trained_positive == 1
        assert policy.trained_negative == 0

    def test_ghost_expiry_trains_negative(self):
        policy = self.survival(label_horizon=4)
        policy.admit(CacheItem(1, 100))
        for k in range(2, 12):  # age the ghost past the horizon
            policy.observe_insert(k, 100)
            policy.admit(CacheItem(k, 100))
        assert policy.trained_negative >= 1

    def test_learns_to_separate_hot_from_cold(self):
        """Small re-accessed objects earn positive labels, large
        one-shot objects negative ones; the trained model must rank a
        hot-profile residency above a cold-profile one."""
        policy = self.survival(label_horizon=32)
        cold_key = 10_000
        for round_ in range(400):
            hot = round_ % 8  # small working set, re-accessed
            policy.observe_insert(hot, 64)
            policy.observe_access(hot)
            policy.admit(CacheItem(hot, 64))
            policy.observe_access(hot)  # ghost hit -> positive label
            cold_key += 1  # unique, never seen again
            policy.observe_insert(cold_key, 8192)
            policy.admit(CacheItem(cold_key, 8192))
        assert policy.trained_positive > 0
        assert policy.trained_negative > 0
        feats = policy.features
        hot_feats = feats.extract(64, hits=4, age_ops=16, since_access_ops=1)
        cold_feats = feats.extract(8192, hits=0, age_ops=16, since_access_ops=16)
        assert policy._score(hot_feats) > policy._score(cold_feats)

    def test_zero_threshold_admits_all_but_still_trains(self):
        policy = self.survival(threshold=0.0, warmup_offers=0)
        for k in range(50):
            policy.observe_insert(k, 100)
            assert policy.admit(CacheItem(k, 100))
            policy.observe_access(k)
        assert policy.admit_ratio == 1.0
        assert policy.trained_positive > 0

    def test_resident_tracking_is_bounded(self):
        policy = self.survival(max_tracked=16)
        for k in range(100):
            policy.observe_insert(k, 100)
        assert policy.stats_dict()["tracked"] <= 16

    def test_ghost_list_is_bounded(self):
        policy = self.survival(max_ghosts=8, label_horizon=10_000)
        for k in range(100):
            policy.admit(CacheItem(k, 100))
        assert policy.stats_dict()["ghosts"] <= 8

    def test_feature_seam_is_swappable(self):
        class OneFeature(SurvivalFeatures):
            width = 1
            names = ("log2_size",)

            def extract(self, size, hits, age_ops, since_access_ops):
                return (min(size, 4096) / 4096.0,)

        policy = self.survival(features=OneFeature())
        assert len(policy.weights) == 1
        policy.admit(CacheItem(1, 100))  # must not raise

    def test_validation(self):
        with pytest.raises(ValueError):
            SurvivalAdmission(threshold=1.5)
        with pytest.raises(ValueError):
            SurvivalAdmission(learning_rate=0.0)
        with pytest.raises(ValueError):
            SurvivalAdmission(label_horizon=0)
        with pytest.raises(ValueError):
            SurvivalAdmission(explore_fraction=-0.1)


# ---------------------------------------------------------------------------
# Property tests: invariants every admission policy must satisfy.
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def make_policy(name, seed=7):
    """Construct each policy family with small, test-friendly knobs."""
    return {
        "acceptall": lambda: AcceptAll(),
        "threshold": lambda: SizeThresholdAdmission(1024),
        "dynamic": lambda: DynamicRandomAdmission(
            500, adjust_interval=16, seed=seed
        ),
        "survival": lambda: SurvivalAdmission(
            warmup_offers=4,
            label_horizon=64,
            max_ghosts=32,
            explore_fraction=0.2,
            seed=seed,
        ),
    }[name]()


ALL_POLICIES = ("acceptall", "threshold", "dynamic", "survival")

offers_strategy = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 8192)), max_size=120
)


class TestAdmissionProperties:
    @pytest.mark.parametrize("name", ALL_POLICIES)
    @given(offers=offers_strategy)
    @settings(max_examples=25, deadline=None)
    def test_counters_and_ratio_bounds(self, name, offers):
        policy = make_policy(name)
        for key, size in offers:
            policy.observe_insert(key, size)
            policy.admit(CacheItem(key, size))
        assert 0 <= policy.admitted <= policy.offered == len(offers)
        assert 0.0 <= policy.admit_ratio <= 1.0
        if not offers:
            # No offers -> vacuous full acceptance, never a ZeroDivision.
            assert policy.admit_ratio == 1.0

    @pytest.mark.parametrize("name", ALL_POLICIES)
    @given(offers=offers_strategy, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reseed_pins_decision_stream(self, name, offers, seed):
        """Two instances built with different construction seeds replay
        identical decisions once reseeded alike — the bench contract
        that lets ``point_seed`` pin a whole sweep cell."""

        def stream(construction_seed):
            policy = make_policy(name, seed=construction_seed)
            policy.reseed(seed)
            decisions = []
            for key, size in offers:
                policy.observe_insert(key, size)
                policy.observe_access(key)
                decisions.append(policy.admit(CacheItem(key, size)))
            return decisions

        assert stream(111) == stream(222)

    @pytest.mark.parametrize("name", ALL_POLICIES)
    @given(offers=offers_strategy)
    @settings(max_examples=25, deadline=None)
    def test_pickle_round_trip(self, name, offers):
        """Policies ride inside SweepPoint kwargs, so they must pickle
        mid-stream and keep deciding identically afterwards."""
        policy = make_policy(name)
        for key, size in offers:
            policy.observe_insert(key, size)
            policy.admit(CacheItem(key, size))
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.offered == policy.offered
        assert clone.admitted == policy.admitted
        future = [CacheItem(1000 + k, 256) for k in range(32)]
        assert [clone.admit(i) for i in future] == [
            policy.admit(i) for i in future
        ]
