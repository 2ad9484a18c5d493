"""Columnar traces and array submission (DESIGN.md §15).

What is here, and what tests/test_kernel_arrays.py and
tests/test_differential_kernel.py pin about it:

* :mod:`repro.kernel.arrays` — columnar op streams
  (:class:`TraceArrays`) emitted whole from the vectorized workload
  generators; a subclass of
  :class:`~repro.workloads.trace.Trace` that adds no field, so the
  replay loop (:func:`repro.bench.driver.replay`) takes it as one.
* At the device layer,
  :meth:`~repro.ssd.device.SimulatedSSD.write_arrays` takes a command
  array as columns and is a closed-loop ``write`` per command.
* :mod:`repro.kernel.replay` — :class:`KernelBench`, the name the
  benchmark's ``kv_fdp_kernel`` row binds; it runs the one replay loop.
"""

from .arrays import TraceArrays, scenario_arrays, synthesize_arrays
from .replay import KernelBench

__all__ = [
    "TraceArrays",
    "synthesize_arrays",
    "scenario_arrays",
    "KernelBench",
]
