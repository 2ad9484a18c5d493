"""Consistent-hash routing properties (fleet placement invariants).

The two properties the fleet's correctness rests on, proven with
Hypothesis rather than sampled by hand:

* **determinism under seed** — routing is a pure function of
  ``(seed, membership)``: insertion order, router instance, and call
  history never change an answer;
* **bounded movement** — removing one shard re-routes *only* the keys
  that shard owned (every survivor keeps every key), and the moved
  fraction is ~K/N; adding a shard steals keys only for the newcomer.

Both are load-bearing: the retirement drain assumes survivor keys
never move (otherwise a drain would have to rewrite the whole fleet),
and a fleet's routing must not depend on the process that built its
ring.
"""

from __future__ import annotations

import pytest

from repro.fleet import (
    CacheShard,
    ConsistentHashRouter,
    FleetCache,
    FleetConfig,
    hashring,
)
from tests.test_fleet import _FlakyBackend

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

shard_ids = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
        min_size=1,
        max_size=12,
    ),
    min_size=2,
    max_size=12,
    unique=True,
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
keys = st.lists(
    st.integers(min_value=0, max_value=2**63 - 1),
    min_size=1,
    max_size=300,
    unique=True,
)


@settings(max_examples=50, deadline=None)
@given(ids=shard_ids, seed=seeds, ks=keys, order=st.randoms())
def test_routing_deterministic_under_seed(ids, seed, ks, order):
    """Same (seed, membership) → same routing, whatever the insertion
    order or instance."""
    shuffled = list(ids)
    order.shuffle(shuffled)
    a = ConsistentHashRouter(ids, seed=seed)
    b = ConsistentHashRouter(shuffled, seed=seed)
    assert [a.route(k) for k in ks] == [b.route(k) for k in ks]
    # And a third router built incrementally.
    c = ConsistentHashRouter(seed=seed)
    for shard_id in shuffled:
        c.add_shard(shard_id)
    assert [a.route(k) for k in ks] == [c.route(k) for k in ks]


@settings(max_examples=50, deadline=None)
@given(ids=shard_ids, seed=seeds, ks=keys, victim_index=st.integers(0, 11))
def test_single_removal_moves_only_the_victims_keys(
    ids, seed, ks, victim_index
):
    """The bounded-movement invariant: after removing one shard, every
    key a survivor owned still routes to the same survivor."""
    ring = ConsistentHashRouter(ids, seed=seed)
    victim = ids[victim_index % len(ids)]
    before = {k: ring.route(k) for k in ks}
    ring.remove_shard(victim)
    after = {k: ring.route(k) for k in ks}
    for key in ks:
        if before[key] != victim:
            assert after[key] == before[key]
        else:
            assert after[key] != victim


@settings(max_examples=50, deadline=None)
@given(ids=shard_ids, seed=seeds, ks=keys)
def test_addition_steals_keys_only_for_the_newcomer(ids, seed, ks):
    """Adding a shard moves keys only *to* it — no survivor-to-survivor
    churn (the mirror image of the removal bound)."""
    newcomer = ids[-1]
    ring = ConsistentHashRouter(ids[:-1], seed=seed)
    before = {k: ring.route(k) for k in ks}
    ring.add_shard(newcomer)
    after = {k: ring.route(k) for k in ks}
    for key in ks:
        assert after[key] in (before[key], newcomer)


def test_removal_moves_about_k_over_n_keys():
    """Statistical version of the K/N bound at a realistic fleet size:
    removing 1 of 8 shards moves ~1/8 of a large keyspace (the vnode
    arcs bound the skew; 3x is a generous ceiling that would only
    break if vnode placement were badly unbalanced)."""
    ids = [f"shard{i:02d}" for i in range(8)]
    ring = ConsistentHashRouter(ids, seed=42)
    ks = list(range(20_000))
    before = [ring.route(k) for k in ks]
    ring.remove_shard("shard03")
    after = [ring.route(k) for k in ks]
    moved = sum(1 for b, a in zip(before, after) if b != a)
    expected = len(ks) / len(ids)
    assert moved <= 3 * expected
    # And everything that moved used to belong to the victim.
    for b, a in zip(before, after):
        if b != a:
            assert b == "shard03"


def test_ownership_reasonably_balanced():
    ids = [f"s{i}" for i in range(8)]
    ring = ConsistentHashRouter(ids, seed=7)
    owners = [ring.route(k) for k in range(40_000)]
    mean = 40_000 / 8
    for shard_id in ids:
        count = owners.count(shard_id)
        assert 0.4 * mean <= count <= 2.0 * mean, (shard_id, count)


def test_different_seeds_route_differently():
    ids = [f"s{i}" for i in range(6)]
    ks = list(range(2_000))
    a, b = (ConsistentHashRouter(ids, seed=seed) for seed in (1, 2))
    # astronomically unlikely to collide on 2000 keys
    assert [a.route(k) for k in ks] != [b.route(k) for k in ks]


def test_ring_api_edges():
    ring = ConsistentHashRouter(["a", "b"], seed=0)
    assert "a" in ring and len(ring) == 2
    assert ring.shard_ids == ("a", "b")
    with pytest.raises(ValueError):
        ring.add_shard("a")
    with pytest.raises(ValueError):
        ring.add_shard("")
    with pytest.raises(KeyError):
        ring.remove_shard("zz")
    ring.remove_shard("a")
    assert ring.route(12345) == "b"  # sole survivor owns everything
    ring.remove_shard("b")
    with pytest.raises(KeyError):
        ring.route(1)
    with pytest.raises(ValueError):
        ConsistentHashRouter(vnodes=0)


# ----------------------------------------------------------------------
# the key → owner memo is a pure cache of the SHA-256 placement
# ----------------------------------------------------------------------


def _assert_ring_equals_fresh(ring, seed, ks):
    """``ring`` (memo warm or cold) answers as a ring built from
    scratch with its ``(seed, membership)`` does, for every key."""
    fresh = ConsistentHashRouter(ring.shard_ids, seed=seed)
    if not len(ring):
        with pytest.raises(KeyError):
            ring.route(ks[0])
        return
    want = [fresh.route(k) for k in ks]
    assert [ring.route(k) for k in ks] == want  # fills the memo
    assert [ring.route(k) for k in ks] == want  # served from it


@settings(max_examples=50, deadline=None)
@given(
    ids=shard_ids,
    seed=seeds,
    ks=keys,
    toggles=st.lists(st.integers(0, 11), max_size=16),
)
def test_memoized_ring_equals_fresh_ring_after_any_membership_change(
    ids, seed, ks, toggles
):
    """Every add/remove clears the memo: no stale owner survives a
    membership change, whatever was routed before it."""
    ring = ConsistentHashRouter(ids[:2], seed=seed)
    _assert_ring_equals_fresh(ring, seed, ks)
    for index in toggles:
        shard_id = ids[index % len(ids)]
        if shard_id in ring:
            ring.remove_shard(shard_id)
        else:
            ring.add_shard(shard_id)
        _assert_ring_equals_fresh(ring, seed, ks)


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    ks=keys,
    script=st.lists(
        st.tuples(
            st.sampled_from(["kill", "retire", "quarantine", "add"]),
            st.integers(0, 5),
        ),
        max_size=8,
    ),
)
def test_fleet_rings_equal_fresh_rings_after_kill_retire_add(seed, ks, script):
    """The router's two rings — live membership and the every-shard-
    ever ``_full_ring`` behind miss-storm attribution — stay equal to
    freshly built ones through kills, drains and additions, with the
    data path (which fills both memos) running in between."""
    def shard(i):
        return CacheShard(f"s{i}", _FlakyBackend(0))

    fleet = FleetCache(
        [shard(i) for i in range(3)], FleetConfig(ring_seed=seed)
    )

    def traffic_then_check():
        for key in ks:
            fleet.set(key, 100)
            fleet.get(key)
        _assert_ring_equals_fresh(fleet.ring, seed, ks)
        _assert_ring_equals_fresh(fleet._full_ring, seed, ks)

    traffic_then_check()
    for action, i in script:
        shard_id = f"s{i}"
        if action == "add":
            if shard_id in fleet.shards:
                continue
            fleet.add_shard(shard(i))
        elif shard_id not in fleet.ring:
            continue
        else:
            getattr(fleet, f"{action}_shard")(shard_id)
        traffic_then_check()


def test_route_memo_is_bounded(monkeypatch):
    ring = ConsistentHashRouter(["a", "b", "c"], seed=3)
    ks = [k * 7919 for k in range(50)]
    owners = [ring.route(k) for k in ks]
    # At the cap the memo starts over instead of growing: answers hold.
    monkeypatch.setattr(hashring, "_MEMO_MAX_KEYS", 8)
    small = ConsistentHashRouter(["a", "b", "c"], seed=3)
    assert [small.route(k) for k in ks] == owners
    assert len(small._owners) <= 8
    assert [small.route(k) for k in ks] == owners
