"""Trace container and on-disk format.

A trace is three parallel numpy arrays (op, key, size) — the layout the
bench driver iterates — plus save/load in a simple gzipped CSV format
(``op,key,size`` per line) compatible with external tooling, in the
spirit of the CacheBench trace-replay inputs.

A trace may additionally carry a per-op **arrival schedule**
(``arrivals_ns``): absolute simulated arrival times, one per op,
nondecreasing.  Stationary traces leave it ``None`` and the replay
drivers fall back to their fixed-interval / closed-loop clocks; the
adversarial transforms (:mod:`repro.workloads.adversarial`) attach a
schedule so diurnal waves and flash-crowd rate spikes survive slicing
and composition as part of the trace itself.
"""

from __future__ import annotations

import dataclasses
import gzip
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

__all__ = ["OP_GET", "OP_SET", "OP_DEL", "OP_NAMES", "Trace", "Request"]

OP_GET = 0
OP_SET = 1
OP_DEL = 2
OP_NAMES = {OP_GET: "get", OP_SET: "set", OP_DEL: "del"}
_OP_CODES = {name: code for code, name in OP_NAMES.items()}
#: The codes are 0.._MAX_OP with no gap, so a column is valid exactly
#: when its maximum is: one pass, no sort, no temporary.
_MAX_OP = len(OP_NAMES) - 1

Request = Tuple[int, int, int]  # (op, key, size)


@dataclasses.dataclass
class Trace:
    """An immutable request stream.

    Attributes
    ----------
    ops:
        uint8 array of op codes (``OP_GET``/``OP_SET``/``OP_DEL``).
    keys:
        int64 array of object keys.
    sizes:
        int64 array of object sizes in bytes (meaningful for GET too:
        the driver uses it for fill-on-miss).
    name:
        Human-readable workload label.
    arrivals_ns:
        Optional int64 array of absolute per-op arrival times
        (nondecreasing).  ``None`` for stationary traces; set by the
        adversarial timing transforms and consumed by open-loop replay.
    """

    ops: np.ndarray
    keys: np.ndarray
    sizes: np.ndarray
    name: str = "trace"
    arrivals_ns: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if not (len(self.ops) == len(self.keys) == len(self.sizes)):
            raise ValueError("ops/keys/sizes must have equal length")
        self.ops = np.asarray(self.ops, dtype=np.uint8)
        self.keys = np.asarray(self.keys, dtype=np.int64)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if len(self.sizes) and int(self.sizes.min()) <= 0:
            raise ValueError("all sizes must be positive")
        if len(self.ops) and int(self.ops.max()) > _MAX_OP:
            bad = set(np.unique(self.ops)) - set(OP_NAMES)
            raise ValueError(f"unknown op codes: {sorted(bad)}")
        if self.arrivals_ns is not None:
            self.arrivals_ns = np.asarray(self.arrivals_ns, dtype=np.int64)
            if len(self.arrivals_ns) != len(self.ops):
                raise ValueError("arrivals_ns must match the op count")
            if len(self.arrivals_ns) and (
                int(self.arrivals_ns[0]) < 0
                or bool(np.any(np.diff(self.arrivals_ns) < 0))
            ):
                raise ValueError(
                    "arrivals_ns must be non-negative and nondecreasing"
                )

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Request]:
        for op, key, size in zip(
            self.ops.tolist(), self.keys.tolist(), self.sizes.tolist()
        ):
            yield op, key, size

    def slice(self, start: int, stop: int) -> "Trace":
        """A view-like sub-trace (arrays are numpy slices)."""
        return Trace(
            self.ops[start:stop],
            self.keys[start:stop],
            self.sizes[start:stop],
            name=f"{self.name}[{start}:{stop}]",
            arrivals_ns=(
                None
                if self.arrivals_ns is None
                else self.arrivals_ns[start:stop]
            ),
        )

    # ------------------------------------------------------------------
    # summary statistics (used by tests and examples)
    # ------------------------------------------------------------------

    def op_counts(self) -> dict:
        """Requests per op name."""
        values, counts = np.unique(self.ops, return_counts=True)
        return {OP_NAMES[int(v)]: int(c) for v, c in zip(values, counts)}

    def get_set_ratio(self) -> float:
        """GETs per SET (the paper quotes 4:1 for KV Cache)."""
        counts = self.op_counts()
        sets = counts.get("set", 0)
        return counts.get("get", 0) / sets if sets else float("inf")

    def unique_keys(self) -> int:
        return int(np.unique(self.keys).size)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write as gzipped CSV: ``op,key,size[,arrival_ns]`` per line."""
        path = Path(path)
        with gzip.open(path, "wt") as fh:
            if self.arrivals_ns is None:
                fh.write("# op,key,size\n")
                for op, key, size in self:
                    fh.write(f"{OP_NAMES[op]},{key},{size}\n")
            else:
                fh.write("# op,key,size,arrival_ns\n")
                arrivals = self.arrivals_ns.tolist()
                for (op, key, size), at in zip(self, arrivals):
                    fh.write(f"{OP_NAMES[op]},{key},{size},{at}\n")

    @classmethod
    def load(cls, path: Union[str, Path], name: str = "") -> "Trace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        ops, keys, sizes, arrivals = [], [], [], []
        with gzip.open(path, "rt") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split(",")
                ops.append(_OP_CODES[fields[0]])
                keys.append(int(fields[1]))
                sizes.append(int(fields[2]))
                if len(fields) > 3:
                    arrivals.append(int(fields[3]))
        return cls(
            np.array(ops, dtype=np.uint8),
            np.array(keys, dtype=np.int64),
            np.array(sizes, dtype=np.int64),
            name=name or path.stem,
            arrivals_ns=(
                np.array(arrivals, dtype=np.int64) if arrivals else None
            ),
        )
