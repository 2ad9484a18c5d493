"""Columnar trace generation and interchange (repro.kernel.arrays).

Two properties, hypothesis-driven:

* the vectorized generators emit exactly what a per-op reference
  implementation emits for the same seed — element-wise identical,
  not distributionally similar (the vectorization is an
  implementation detail, never a semantic);
* ``TraceArrays`` interchange is lossless: ``from_trace``/``to_trace``
  share (never copy) the columns, survive ``Trace.save``/``load``
  round-trips arrival schedule included, and chunking partitions
  reassemble to the original stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernel import TraceArrays, scenario_arrays, synthesize_arrays
from repro.workloads import SynthSpec, Trace, synthesize
from repro.workloads.distributions import (
    ZipfSampler,
    key_uniform,
    loguniform_sizes,
)
from repro.workloads.trace import OP_GET, OP_SET


# --------------------------------------------------------------------
# per-op reference generator
# --------------------------------------------------------------------


def synthesize_per_op(spec: SynthSpec) -> Trace:
    """Scalar reference: one op at a time, same seeded streams.

    Draws from the same generators in the same order the vectorized
    :func:`~repro.workloads.synth.synthesize` does — the rank sampler
    one uniform per op, the op-mix generator one uniform per op, the
    size hash one key at a time — so any divergence is a real semantic
    difference in the vectorized path, not RNG stream skew.
    """
    sampler = ZipfSampler(spec.num_keys, spec.zipf_alpha, seed=spec.seed)
    ranks = [int(sampler.sample(1)[0]) for _ in range(spec.num_ops)]

    rng = np.random.default_rng(spec.seed + 1)
    epoch_len = max(1, spec.num_ops // spec.churn_epochs)
    total_churn_keys = int(spec.num_keys * spec.churn_fraction)
    stride = total_churn_keys // spec.churn_epochs

    ops, keys, sizes = [], [], []
    for i in range(spec.num_ops):
        key = ranks[i] + (i // epoch_len) * stride
        op = OP_GET if rng.random() < spec.get_fraction else OP_SET
        key_arr = np.array([key], dtype=np.int64)
        small = float(key_uniform(key_arr, salt=0xC1A55)[0])
        size_u = key_uniform(key_arr, salt=0x512E)
        if small < spec.small_key_fraction:
            size = int(loguniform_sizes(size_u, *spec.small_size_range)[0])
        else:
            size = int(loguniform_sizes(size_u, *spec.large_size_range)[0])
        ops.append(op)
        keys.append(key)
        sizes.append(size)
    return Trace(
        np.array(ops, dtype=np.uint8),
        np.array(keys, dtype=np.int64),
        np.array(sizes, dtype=np.int64),
        name=spec.name,
    )


specs = st.builds(
    SynthSpec,
    name=st.just("prop"),
    num_ops=st.integers(1, 160),
    num_keys=st.integers(1, 400),
    get_fraction=st.floats(0.0, 1.0),
    zipf_alpha=st.floats(0.0, 2.0),
    small_key_fraction=st.floats(0.0, 1.0),
    churn_fraction=st.floats(0.0, 1.0),
    churn_epochs=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(spec=specs)
def test_vectorized_generation_elementwise_identical(spec):
    fast = synthesize_arrays(spec)
    slow = synthesize_per_op(spec)
    np.testing.assert_array_equal(fast.ops, slow.ops)
    np.testing.assert_array_equal(fast.keys, slow.keys)
    np.testing.assert_array_equal(fast.sizes, slow.sizes)
    assert fast.name == slow.name


# --------------------------------------------------------------------
# lossless interchange
# --------------------------------------------------------------------


def _spec(num_ops=2000, seed=7):
    return SynthSpec("interchange", num_ops, 500, 0.75, seed=seed)


def test_from_trace_to_trace_is_zero_copy_and_lossless():
    trace = synthesize(_spec())
    arrays = TraceArrays.from_trace(trace)
    back = arrays.to_trace()
    # Shared buffers, not copies.
    assert back.ops is arrays.ops and arrays.ops is trace.ops
    assert back.keys is arrays.keys and back.sizes is arrays.sizes
    assert back.name == trace.name
    assert back.arrivals_ns is None


def test_round_trip_through_save_load_with_arrivals(tmp_path):
    arrays = scenario_arrays("diurnal", synthesize(_spec()), seed=5)
    assert arrays.arrivals_ns is not None
    path = tmp_path / "t.csv.gz"
    arrays.to_trace().save(path)
    loaded = TraceArrays.from_trace(Trace.load(path, name=arrays.name))
    np.testing.assert_array_equal(loaded.ops, arrays.ops)
    np.testing.assert_array_equal(loaded.keys, arrays.keys)
    np.testing.assert_array_equal(loaded.sizes, arrays.sizes)
    np.testing.assert_array_equal(loaded.arrivals_ns, arrays.arrivals_ns)
    assert loaded.name == arrays.name


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_chunking_partitions_reassemble(data):
    arrays = TraceArrays.from_trace(synthesize(_spec(num_ops=120)))
    sizes = []
    remaining = len(arrays)
    while remaining:
        c = data.draw(st.integers(1, min(remaining, 17)))
        sizes.append(c)
        remaining -= c
    chunks = list(arrays.chunked(sizes))
    assert [len(c) for c in chunks] == sizes
    np.testing.assert_array_equal(
        np.concatenate([c.ops for c in chunks]), arrays.ops
    )
    np.testing.assert_array_equal(
        np.concatenate([c.keys for c in chunks]), arrays.keys
    )
    np.testing.assert_array_equal(
        np.concatenate([c.sizes for c in chunks]), arrays.sizes
    )


def test_chunked_rejects_non_partitions():
    arrays = TraceArrays.from_trace(synthesize(_spec(num_ops=10)))
    with pytest.raises(ValueError):
        list(arrays.chunked([4, 4]))
    with pytest.raises(ValueError):
        list(arrays.chunked([5, 0, 5]))
    with pytest.raises(ValueError):
        list(arrays.chunked([12]))


def test_validation_mirrors_trace():
    with pytest.raises(ValueError):
        TraceArrays(
            np.array([0], dtype=np.uint8),
            np.array([1], dtype=np.int64),
            np.array([0], dtype=np.int64),  # non-positive size
        )
    with pytest.raises(ValueError):
        TraceArrays(
            np.array([9], dtype=np.uint8),  # unknown op code
            np.array([1], dtype=np.int64),
            np.array([10], dtype=np.int64),
        )
