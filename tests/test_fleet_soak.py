"""End-to-end fleet shard-loss soak (the tentpole acceptance test).

Tier-1 runs a compact 3-shard soak: one shard dies unannounced at the
halfway point and the run must prove graceful degradation — every op
served (as a hit, miss, or degraded miss; never an exception), the
miss storm attributed to the dead shard's keyspace, an exactly-once
placement audit across survivors, and full determinism.  Losing 1 of 3
shards permanently removes a third of the cache, so the compact run is
judged at a wider recovery tolerance; the CI smoke job and the
``slow``-marked full-scale soak enforce the paper-grade 10% bound
where the lost fraction is realistic (1 of 8).
"""

from __future__ import annotations

import inspect

import pytest

from repro.bench.__main__ import SOAKS, main
from repro.bench.fleet import default_fleet_specs, run_fleet_soak
from repro.bench.metrics import SoakResult
from repro.bench.runner import Scale

TINY = Scale(num_superblocks=32, num_ops=24_000)


@pytest.fixture(scope="module")
def tiny_soak():
    return run_fleet_soak(
        num_shards=3, num_ops=24_000, scale=TINY, tolerance=0.25
    )


WINDOWS = ("pre", "spike", "recovered", "control")


class TestTinySoak:
    def test_serves_through_the_kill(self, tiny_soak):
        r = tiny_soak
        pre, spike, recovered = (r.row(w) for w in WINDOWS[:3])
        # Every trace op was served; failures became misses, never
        # exceptions or lost ops.
        window_ops = pre["ops"] + spike["ops"] + recovered["ops"]
        assert r.params["ops"] >= window_ops
        assert spike["live_shards"] == pre["live_shards"] - 1
        assert recovered["live_shards"] == pre["live_shards"] - 1

    def test_kill_fired_as_scripted(self, tiny_soak):
        e = tiny_soak.evidence
        assert e["kill_at_ops"] == tiny_soak.params["ops"] // 2 + 1
        kills = [t for t in e["transitions"] if t["event"] == "kill"]
        assert len(kills) == 1
        assert kills[0]["shard_id"] == e["killed_shard"]

    def test_miss_storm_attributed_to_dead_shard(self, tiny_soak):
        pre, spike, recovered, control = (
            tiny_soak.row(w)["storm_misses"] for w in WINDOWS
        )
        assert pre == 0  # intact fleet: no storm
        assert spike > 0  # the storm is visible...
        assert recovered < spike  # ...and fading
        assert control == 0

    def test_exactly_once_placement_across_survivors(self, tiny_soak):
        e = tiny_soak.evidence
        assert e["keys_resident"] > 0
        assert tiny_soak.gate("placement_clean").passed
        assert e["misplaced"] == 0
        assert e["duplicates"] == 0
        assert e["shadow_mismatches"] == 0

    def test_recovers_within_tolerance_of_control(self, tiny_soak):
        r = tiny_soak
        assert r.gate("miss_ratio_recovered").passed
        assert r.gate("p99_recovered").passed
        assert r.acceptance

    def test_windows_are_well_formed(self, tiny_soak):
        assert [r["window"] for r in tiny_soak.rows] == list(WINDOWS)
        for window in tiny_soak.rows:
            assert window["gets"] > 0
            assert 0.0 <= window["miss_ratio"] <= 1.0
            assert window["read_p99_ns"] > 0
            assert window["deadline_misses"] == 0  # no deadline set

    def test_serialization_round_trip(self, tiny_soak):
        d = tiny_soak.to_dict()
        killed = tiny_soak.evidence["killed_shard"]
        assert d["evidence"]["killed_shard"] == killed
        assert d["acceptance"] == tiny_soak.acceptance
        assert sorted(d["rows"]) == sorted(WINDOWS)
        assert len(d["evidence"]["shard_rows"]) == tiny_soak.params["num_shards"]
        table = tiny_soak.table()
        assert "recovered" in table and "x control" in table
        assert killed in table


def test_soak_is_deterministic(tiny_soak):
    again = run_fleet_soak(
        num_shards=3, num_ops=24_000, scale=TINY, tolerance=0.25
    )
    assert again == tiny_soak
    assert isinstance(again, SoakResult)


def test_soak_validation():
    with pytest.raises(ValueError):
        run_fleet_soak(num_shards=1)
    with pytest.raises(ValueError):
        run_fleet_soak(num_shards=4, mix="tape")
    with pytest.raises(ValueError):
        # Too few ops to fit the measurement windows around the kill.
        run_fleet_soak(num_shards=2, num_ops=4_000, scale=TINY)
    with pytest.raises(ValueError):
        default_fleet_specs(0)


@pytest.mark.slow
def test_full_scale_soak_meets_paper_grade_tolerance():
    """The headline run: 8 shards, default scale, 10% recovery bound."""
    r = run_fleet_soak(num_shards=8)
    assert r.acceptance, r.table()


@pytest.mark.slow
def test_cli_smoke_exits_zero(capsys):
    assert main(["soak", "fleet", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "acceptance: PASS" in out


def test_cli_rejects_bad_args():
    # --mix is a run_fleet_soak keyword, not a CLI flag.
    with pytest.raises(SystemExit):
        main(["soak", "fleet", "--mix", "tape"])


def test_smoke_scale_is_ci_sized():
    # Guard against someone "fixing" the smoke job into a 10-minute run.
    # A fleet soak replays num_shards x ops_per_shard ops.
    for name in ("fleet", "failslow", "overload"):
        soak = SOAKS[name]
        params = inspect.signature(soak.run).parameters
        run = {**{k: p.default for k, p in params.items()}, **soak.smoke}
        assert run["scale"].num_superblocks <= 64, name
        assert run["num_ops"] is None, name
        assert run["num_shards"] * run["ops_per_shard"] <= 100_000, name
