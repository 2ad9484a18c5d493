"""Synthetic Meta KV Cache workload (and its write-only variant).

The paper replays 5-day sampled traces from Meta's key-value cache
cluster: a *read-intensive* workload where GETs outnumber SETs 4:1,
dominated by billions of small-object accesses with a long tail of
large objects.  The trace itself is not redistributable, so this
generator reproduces the published shape (Section 6.1):

* GET:SET = 4:1 (``get_fraction=0.8``);
* small objects dominate op counts; large objects dominate bytes;
* Zipfian popularity with continuous key churn, so the flash cache
  keeps admitting new data (what makes flash caching write-intensive).

The **WO KV Cache** variant removes the GETs, exactly as the paper
constructs it: "we generated an additional write-only KV cache workload
by removing the GET operations from the KV cache trace".
"""

from __future__ import annotations

import numpy as np

from .synth import SynthSpec, _stream_head, synthesize
from .trace import OP_SET, Trace

__all__ = ["kv_cache_trace", "wo_kv_cache_trace", "KV_CACHE_DEFAULTS"]

#: Seed stride from a ``wo_kv_cache_trace`` stream to its continuation;
#: far from the ``seed + 1`` that ``synthesize`` itself derives.
_CONTINUATION_SEED_STEP = 1_000_003

KV_CACHE_DEFAULTS = dict(
    get_fraction=0.8,  # 4:1 GET:SET
    zipf_alpha=1.1,
    small_key_fraction=0.9,
    small_size_range=(100, 2000),
    large_size_range=(8 * 1024, 64 * 1024),
    churn_fraction=0.2,
    churn_epochs=32,
)


def kv_cache_trace(
    num_ops: int,
    num_keys: int,
    *,
    seed: int = 42,
    **overrides: object,
) -> Trace:
    """Generate a scaled KV Cache trace.

    ``num_keys`` controls the working-set size relative to the cache
    under test; the experiment runner picks it so the flash layer runs
    at its configured occupancy, as the production deployments do.
    """
    params = dict(KV_CACHE_DEFAULTS)
    params.update(overrides)
    spec = SynthSpec(
        name="kvcache",
        num_ops=num_ops,
        num_keys=num_keys,
        seed=seed,
        **params,  # type: ignore[arg-type]
    )
    return synthesize(spec)


def wo_kv_cache_trace(
    num_ops: int,
    num_keys: int,
    *,
    seed: int = 42,
    **overrides: object,
) -> Trace:
    """The write-only KV Cache workload (GETs removed).

    The SETs of a KV Cache stream in stream order, matching the
    paper's construction; ``num_ops`` is the length *after* dropping,
    so callers get the op count they asked for.  The GETs are dropped
    as coins, before they are ranked or sized, and the stream is drawn
    no further than the last SET kept.
    """
    params = dict(KV_CACHE_DEFAULTS)
    params.update(overrides)
    get_fraction = float(params["get_fraction"])  # type: ignore[arg-type]
    if get_fraction >= 1.0:
        raise ValueError(
            "get_fraction must be below 1: a stream with no SETs has no "
            "write-only trace"
        )
    # The stream that would hold num_ops SETs on average, plus a margin.
    raw_ops = int(num_ops / (1.0 - get_fraction)) + 1024
    spec = SynthSpec(
        name="wo-kvcache",
        num_ops=raw_ops,
        num_keys=num_keys,
        seed=seed,
        **params,  # type: ignore[arg-type]
    )
    head = _stream_head(spec, num_ops, only_op=OP_SET)
    if len(head) == num_ops:
        return head
    # The SET count of a stream is binomial, so the margin above can
    # fall short.  Append the head of a continuation stream (derived
    # seed): what this stream yielded never changes.
    tail = wo_kv_cache_trace(
        num_ops - len(head),
        num_keys,
        seed=seed + _CONTINUATION_SEED_STEP,
        **overrides,
    )
    return Trace(
        ops=np.concatenate((head.ops, tail.ops)),
        keys=np.concatenate((head.keys, tail.keys)),
        sizes=np.concatenate((head.sizes, tail.sizes)),
        name="wo-kvcache",
    )
