"""Shared synthesis engine for the workload generators.

Builds a request stream with the knobs that matter to the paper's
experiments:

* **op mix** — GET fraction (KV Cache 4:1 GET:SET, Twitter 1:4);
* **popularity** — Zipf(alpha) over a key space;
* **churn** — the key space slides forward over time (new keys appear,
  old ones stop being referenced), which keeps the flash layer writing
  even for read-dominant workloads;
* **size mixture** — a deterministic per-key small/large class and a
  log-uniform size within the class, so small objects dominate *op
  counts* while large objects dominate *bytes*, as the paper describes
  for web-service caches.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Tuple

import numpy as np

from .distributions import ZipfSampler, key_uniform, loguniform_sizes
from .trace import OP_GET, OP_SET, Trace

__all__ = ["SynthSpec", "synthesize"]

#: Rows drawn per step.  What a generator holds beyond its output is
#: proportional to this, not to the stream.  The output does not depend
#: on it; 2^16..2^18 time alike and larger only holds more
#: (EXPERIMENTS.md, "Set-up").
_CHUNK_ROWS = 1 << 17


@dataclasses.dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic workload.

    ``churn_fraction`` is the fraction of the key space retired (and
    replaced with fresh keys) over the whole trace; churn is applied
    continuously, one epoch per ``churn_epochs`` slice of the trace.
    """

    name: str
    num_ops: int
    num_keys: int
    get_fraction: float
    zipf_alpha: float = 0.9
    small_key_fraction: float = 0.9
    small_size_range: tuple = (100, 2000)
    large_size_range: tuple = (8 * 1024, 64 * 1024)
    churn_fraction: float = 0.3
    churn_epochs: int = 32
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_ops <= 0 or self.num_keys <= 0:
            raise ValueError("num_ops and num_keys must be positive")
        if not 0.0 <= self.get_fraction <= 1.0:
            raise ValueError("get_fraction must be in [0, 1]")
        if not 0.0 <= self.small_key_fraction <= 1.0:
            raise ValueError("small_key_fraction must be in [0, 1]")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise ValueError("churn_fraction must be in [0, 1]")
        if self.churn_epochs <= 0:
            raise ValueError("churn_epochs must be positive")


def _sizes_for_keys(keys: np.ndarray, spec: SynthSpec) -> np.ndarray:
    """Deterministic per-key size: class by one hash, size by another."""
    class_u = key_uniform(keys, salt=0xC1A55)
    size_u = key_uniform(keys, salt=0x512E)
    small = class_u < spec.small_key_fraction
    sizes = np.empty(len(keys), dtype=np.int64)
    sizes[small] = loguniform_sizes(size_u[small], *spec.small_size_range)
    sizes[~small] = loguniform_sizes(size_u[~small], *spec.large_size_range)
    return sizes


def _chunks(
    spec: SynthSpec, only_op: Optional[int] = None
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The stream as consecutive ``(ops, keys, sizes)`` pieces, each
    covering at most ``_CHUNK_ROWS`` rows; with ``only_op``, just the
    rows of that op.

    What makes any chunking position-identical to one whole-column
    draw: a row takes exactly one ``random()`` from each of two
    generators (rank uniform from ``default_rng(seed)``, op coin from
    ``default_rng(seed + 1)``), its churn epoch is a function of its
    absolute row number, and its size is a function of its key.  So
    the coins are tossed first and only the rows kept are ranked,
    churned and sized.
    """
    sampler = ZipfSampler(spec.num_keys, spec.zipf_alpha, seed=spec.seed)
    coin = np.random.default_rng(spec.seed + 1)
    # Key churn: the zipf *rank* space is stable, but the mapping of
    # rank -> key slides forward so that over the whole trace,
    # churn_fraction of the key space is retired and replaced.
    epoch_len = max(1, spec.num_ops // spec.churn_epochs)
    total_churn_keys = int(spec.num_keys * spec.churn_fraction)
    stride = total_churn_keys // spec.churn_epochs
    for start in range(0, spec.num_ops, _CHUNK_ROWS):
        n = min(_CHUNK_ROWS, spec.num_ops - start)
        ops = np.where(
            coin.random(n) < spec.get_fraction,
            np.uint8(OP_GET),
            np.uint8(OP_SET),
        )
        rows = np.arange(start, start + n, dtype=np.int64)
        keep = None
        if only_op is not None:
            keep = ops == only_op
            ops, rows = ops[keep], rows[keep]
        keys = sampler.sample(n, keep) + rows // epoch_len * stride
        yield ops, keys, _sizes_for_keys(keys, spec)


def _stream_head(
    spec: SynthSpec, num_rows: int, only_op: Optional[int] = None
) -> Trace:
    """The first ``num_rows`` rows of ``spec``'s stream (of its
    ``only_op`` rows, when given); fewer if the stream runs out first.
    Stops drawing once it holds them."""
    ops = np.empty(num_rows, dtype=np.uint8)
    keys = np.empty(num_rows, dtype=np.int64)
    sizes = np.empty(num_rows, dtype=np.int64)
    held = 0
    for c_ops, c_keys, c_sizes in _chunks(spec, only_op):
        end = min(held + len(c_ops), num_rows)
        ops[held:end] = c_ops[: end - held]
        keys[held:end] = c_keys[: end - held]
        sizes[held:end] = c_sizes[: end - held]
        held = end
        if held == num_rows:
            break
    return Trace(
        ops=ops[:held], keys=keys[:held], sizes=sizes[:held], name=spec.name
    )


def synthesize(spec: SynthSpec) -> Trace:
    """Generate the request stream described by ``spec``."""
    return _stream_head(spec, spec.num_ops)
