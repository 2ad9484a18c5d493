"""Columnar op streams.

:class:`~repro.workloads.trace.Trace` is already columnar (parallel
numpy arrays), so :class:`TraceArrays` is *not* another container — it
is a trace, plus the chunking helper the differential tier uses to
prove that any split of an op array replays identically.  Conversion
in either direction is lossless and zero-copy (the arrays are shared,
never copied), so ``TraceArrays.from_trace(t).to_trace()`` round-trips
through ``Trace.save``/``Trace.load`` bit-for-bit, arrival schedule
included.

The generators stay in :mod:`repro.workloads` — they were vectorized
from the start (:func:`~repro.workloads.synth.synthesize` fills its
numpy columns a bounded chunk of rows at a time, so it holds one chunk
beyond the trace it returns); :func:`synthesize_arrays` /
:func:`scenario_arrays` just emit the kernel view directly.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

from ..workloads.adversarial import Scenario, build_scenario
from ..workloads.synth import SynthSpec, synthesize
from ..workloads.trace import Trace

__all__ = ["TraceArrays", "synthesize_arrays", "scenario_arrays"]


class TraceArrays(Trace):
    """A trace in kernel form: the same columns, validated the same.

    A subclass that adds no field, so anything that takes a
    :class:`Trace` (the replay loop included) takes this.
    """

    # ------------------------------------------------------------------
    # lossless Trace interchange (zero-copy both ways)
    # ------------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "TraceArrays":
        return cls(
            trace.ops,
            trace.keys,
            trace.sizes,
            name=trace.name,
            arrivals_ns=trace.arrivals_ns,
        )

    def to_trace(self) -> Trace:
        return Trace(
            self.ops,
            self.keys,
            self.sizes,
            name=self.name,
            arrivals_ns=self.arrivals_ns,
        )

    def chunked(
        self, chunk_sizes: Sequence[int]
    ) -> Iterator["TraceArrays"]:
        """Split into consecutive chunks of the given sizes.

        Chunks are zero-copy slices.  The sizes must partition the
        stream exactly — the differential tier replays arbitrary
        partitions and asserts the result is bit-identical to the
        unchunked replay, so a silent tail drop here would void the
        property being proven.
        """
        if sum(chunk_sizes) != len(self) or any(
            c <= 0 for c in chunk_sizes
        ):
            raise ValueError(
                f"chunk sizes {list(chunk_sizes)} do not partition "
                f"{len(self)} ops"
            )
        start = 0
        for size in chunk_sizes:
            yield TraceArrays.from_trace(self.slice(start, start + size))
            start += size


def synthesize_arrays(spec: SynthSpec) -> TraceArrays:
    """Emit the whole op array for ``spec`` in kernel form."""
    return TraceArrays.from_trace(synthesize(spec))


def scenario_arrays(
    scenario: Union[str, Scenario],
    trace: Trace,
    *,
    seed: int = 0,
) -> TraceArrays:
    """Apply an adversarial scenario and emit the kernel view.

    ``scenario`` is a :class:`~repro.workloads.adversarial.Scenario`
    or one of the :data:`~repro.workloads.adversarial.SCENARIOS` names
    (built with ``seed`` per the ``point_seed`` contract).  Scenario
    traces carry an arrival schedule, which survives the conversion —
    the replay loop goes open loop on it.
    """
    if isinstance(scenario, str):
        scenario = build_scenario(scenario, seed=seed)
    return TraceArrays.from_trace(scenario.apply(trace))
