"""Unit tests for the fail-slow fault model (config, binding, overlay math)."""

from __future__ import annotations

import pytest

from repro.faults.failslow import FailSlowConfig, FailSlowModel


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------


class TestConfigValidation:
    def test_defaults_are_quiescent(self):
        cfg = FailSlowConfig()
        assert cfg.die_multipliers == ()
        assert bound(cfg).status_dict()["enabled"] is False

    def test_mapping_coerced_to_sorted_tuple(self):
        cfg = FailSlowConfig(die_multipliers={3: 2.0, 1: 8.0})
        assert cfg.die_multipliers == ((1, 8.0), (3, 2.0))

    def test_rejects_speedups(self):
        with pytest.raises(ValueError):
            FailSlowConfig(die_multipliers={0: 0.5})

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            FailSlowConfig(die_multipliers={-1: 2.0})


# ----------------------------------------------------------------------
# model binding
# ----------------------------------------------------------------------


def bound(config, channels=4, planes=2):
    model = FailSlowModel(config)
    model.bind(channels, planes)
    return model


class TestBinding:
    def test_die_maps_to_its_plane_channels(self):
        model = bound(FailSlowConfig(die_multipliers={1: 8.0}))
        status = model.status_dict()
        assert status["multipliers"] == {2: 8.0, 3: 8.0}
        assert status["enabled"] is True

    def test_out_of_range_die_rejected_at_bind(self):
        with pytest.raises(ValueError):
            bound(FailSlowConfig(die_multipliers={7: 2.0}))

    def test_rebind_is_idempotent(self):
        model = bound(FailSlowConfig(die_multipliers={0: 2.0}))
        model.bind(4, 2)  # device format() rebuilds the scheduler
        assert model.status_dict()["multipliers"] == {0: 2.0, 1: 2.0}

    def test_slow_die_before_bind_raises(self):
        model = FailSlowModel(FailSlowConfig())
        with pytest.raises(RuntimeError):
            model.slow_die(0, 4.0)

    def test_slow_die_rejects_speedup_and_unknown_die(self):
        model = bound(FailSlowConfig())
        with pytest.raises(ValueError):
            model.slow_die(0, 0.5)
        with pytest.raises(ValueError):
            model.slow_die(2, 4.0)  # 4 channels / 2 planes = dies 0 and 1
        assert model.activations == 0


# ----------------------------------------------------------------------
# overlay arithmetic
# ----------------------------------------------------------------------


class TestAdjust:
    def test_quiescent_is_pass_through(self):
        model = bound(FailSlowConfig())
        assert model.adjust(0, 456) == 456
        assert model.scale_background(0, 456) == 456
        assert model.slowed_commands == model.background_slowed == 0

    def test_static_multiplier_stretches_duration_only(self):
        model = bound(FailSlowConfig(die_multipliers={0: 4.0}))
        assert model.adjust(1, 70_000) == 280_000
        assert model.adjust(2, 70_000) == 70_000
        assert model.slowed_commands == 1
        assert model.slow_extra_ns == 210_000

    def test_slow_die_composes_in_call_order(self):
        """Runtime slowdowns multiply onto the static product, one call
        at a time, before the duration is truncated to an integer."""
        model = bound(FailSlowConfig(die_multipliers={0: 3.0}))
        model.slow_die(0, 2.5)
        model.slow_die(0, 1.1)
        model.slow_die(1, 5.0)
        assert model.status_dict()["multipliers"] == {
            0: 3.0 * 2.5 * 1.1,
            1: 3.0 * 2.5 * 1.1,
            2: 5.0,
            3: 5.0,
        }
        assert model.adjust(0, 70_001) == int(70_001 * (3.0 * 2.5 * 1.1))
        assert model.adjust(3, 100) == 500
        assert model.activations == 3

    def test_background_scaling_no_stalls(self):
        model = bound(FailSlowConfig(die_multipliers={0: 4.0}))
        assert model.scale_background(0, 3_000) == 12_000
        assert model.scale_background(2, 3_000) == 3_000
        assert model.background_slowed == 1
        assert model.background_extra_ns == 9_000
        assert model.slowed_commands == 0  # host counters stay apart
