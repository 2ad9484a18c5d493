"""Trace identity: every generator, byte for byte, against the commit
before synthesis went chunked.

``tests/golden/trace_digests.json`` was recorded at 158eb6d, when
``synthesize`` drew whole columns and ``wo_kv_cache_trace`` masked a 5x
stream after the fact; it holds the SHA-256 of ops‖keys‖sizes
(‖arrivals, where a trace carries them) for each generator at lengths
that straddle the chunk boundary.  Never regenerate it to make a change
to ``repro.workloads`` pass: every golden replay, ``sim_*`` value and
benchmark number in this repo is a function of these bytes.

The properties below then say *why* the digests hold: the columns do
not depend on where the stream is cut, and keeping one op's rows before
ranking them equals masking the finished stream.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import scenario_arrays, synthesize_arrays
from repro.workloads import (
    OP_SET,
    SynthSpec,
    Trace,
    ZipfSampler,
    kv_cache_trace,
    synth,
    synthesize,
    twitter_cluster12_trace,
    wo_kv_cache_trace,
)
from tests.test_golden_regression import _check_golden

#: The chunk the fixture's lengths were laid around.
CHUNK = 1 << 17
NUM_KEYS = 50_000
#: 4 and 6 are seeds whose write-only stream comes back short of the
#: count asked for and takes the continuation top-up.
SEEDS = (4, 6, 42)
LENGTHS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7, 700_000)

GENERATORS = {
    "kvcache": kv_cache_trace,
    "wo-kvcache": wo_kv_cache_trace,
    "twitter": twitter_cluster12_trace,
}

#: (num_ops, seed) pairs ``test_workloads`` pins as short streams.
TOPPED_UP = ((100_000, 4), (200_000, 6))


def digest(trace: Trace) -> str:
    h = hashlib.sha256()
    for column in (trace.ops, trace.keys, trace.sizes, trace.arrivals_ns):
        if column is not None:
            h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def test_chunk_constant_is_the_one_the_lengths_straddle():
    assert synth._CHUNK_ROWS == CHUNK


def test_golden_trace_digests(update_golden: bool) -> None:
    digests = {
        kind: {
            f"seed={seed}/ops={num_ops}": digest(
                generator(num_ops, NUM_KEYS, seed=seed)
            )
            for seed in SEEDS
            for num_ops in LENGTHS
        }
        for kind, generator in GENERATORS.items()
    }
    for num_ops, seed in TOPPED_UP:
        digests["wo-kvcache"][f"seed={seed}/ops={num_ops}"] = digest(
            wo_kv_cache_trace(num_ops, NUM_KEYS, seed=seed)
        )
    # The two consumers that wrap the generators: the kernel view of a
    # spec, and an adversarial scenario laid over a generated trace.
    spec = SynthSpec(
        "derived",
        num_ops=CHUNK + 1_000,
        num_keys=20_000,
        get_fraction=0.55,
        zipf_alpha=0.95,
        churn_fraction=0.4,
        churn_epochs=7,
        seed=11,
    )
    digests["synthesize_arrays"] = digest(synthesize_arrays(spec))
    digests["scenario/flashcrowd"] = digest(
        scenario_arrays(
            "flashcrowd", kv_cache_trace(60_000, 8_000, seed=9), seed=5
        )
    )
    _check_golden("trace_digests", digests, update_golden)


def _columns_equal(a: Trace, b: Trace) -> None:
    np.testing.assert_array_equal(a.ops, b.ops)
    np.testing.assert_array_equal(a.keys, b.keys)
    np.testing.assert_array_equal(a.sizes, b.sizes)


@st.composite
def specs(draw) -> SynthSpec:
    return SynthSpec(
        "prop",
        num_ops=draw(st.integers(1, 300)),
        num_keys=draw(st.integers(1, 500)),
        get_fraction=draw(st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0))),
        zipf_alpha=draw(st.sampled_from((0.0, 0.8, 1.1))),
        churn_fraction=draw(st.sampled_from((0.0, 0.3, 1.0))),
        churn_epochs=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**20)),
    )


@settings(max_examples=150, deadline=None)
@given(spec=specs(), data=st.data())
def test_any_chunking_yields_the_columns_of_one_chunk(spec, data):
    chunk = data.draw(st.integers(1, 2 * spec.num_ops), label="chunk")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_CHUNK_ROWS", spec.num_ops)
        whole = synthesize(spec)
        patch.setattr(synth, "_CHUNK_ROWS", chunk)
        _columns_equal(synthesize(spec), whole)
    assert len(whole) == spec.num_ops


@settings(max_examples=150, deadline=None)
@given(spec=specs(), data=st.data())
def test_projected_stream_equals_masking_the_full_one(spec, data):
    chunk = data.draw(st.integers(1, 2 * spec.num_ops), label="chunk")
    want = data.draw(st.integers(0, spec.num_ops + 5), label="rows wanted")
    full = synthesize(spec)
    rows = np.flatnonzero(full.ops == OP_SET)[:want]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synth, "_CHUNK_ROWS", chunk)
        head = synth._stream_head(spec, want, only_op=OP_SET)
    _columns_equal(head, Trace(full.ops[rows], full.keys[rows], full.sizes[rows]))


def test_sampler_inverts_only_the_kept_draws_and_advances_by_all():
    keep = np.random.default_rng(0).random(1_000) < 0.3
    whole, kept = ZipfSampler(200, 1.0, seed=3), ZipfSampler(200, 1.0, seed=3)
    np.testing.assert_array_equal(
        kept.sample(1_000, keep), whole.sample(1_000)[keep]
    )
    np.testing.assert_array_equal(kept.sample(50), whole.sample(50))
