"""Count-based guard on what one fault-free host write costs.

No wall clock, so it cannot flake: ``sys.setprofile`` counts the call
events (Python frames and C functions entered) inside one
``SimulatedSSD.write`` on a clean device whose write point is already
open — the shape of every SOC bucket rewrite (one page) and LOC region
flush (one multi-page chunk) a cache replay issues.  The hooks a
fault-equipped device needs live in the same loop, and this is what
keeps them free for everyone else: a frame or a per-page call that
creeps into the clean path fails here, in tier-1, before any benchmark
runs.

The commit before the write paths were collapsed measured 22 and 27
events, 15 and 16 of them Python frames, counting
``SimulatedSSD.write`` itself, and later rounds brought that to 18 and
23 (12 and 13 frames).  The bars are what the chain measures since it
stopped calling its hooks when they have nothing to do (the offline
check, the spike roll, the checkpoint test), reading its stream and
duration memos inline and recording the command without a Python
``__init__``: 12 and 18 (6 and 8 frames).  None may rise.
"""

from __future__ import annotations

import sys

from repro.ssd import Geometry, SimulatedSSD

# 128-page superblocks: a 40-page write fits the open one whole.
GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=32,
    planes_per_die=2,
    dies=2,
    num_superblocks=32,
    op_fraction=0.10,
)

MAX_EVENTS = {1: 12, 40: 18}
MAX_PYTHON_FRAMES = {1: 6, 40: 8}


def call_events(fn):
    """(all call events, Python frames only) while ``fn()`` runs."""
    counts = {"call": 0, "c_call": 0}

    def profiler(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    # Leaving the profiled region is itself one C call (setprofile).
    return counts["call"] + counts["c_call"] - 1, counts["call"]


def test_clean_write_call_events_do_not_rise():
    device = SimulatedSSD(GEOMETRY)
    now = device.write(0, 1, now_ns=0, payload="warm")  # opens the write point
    lba = 1
    for npages in (1, 40):
        events, frames = call_events(
            lambda: device.write(lba, npages, None, now, "x")
        )
        # One chunk, no allocation: the write point was open and had room.
        assert device.stats.host_pages_written == lba + npages
        assert device.ftl.free_superblocks == GEOMETRY.num_superblocks - 1
        # The lambda is the harness's frame, not the write's.
        assert events - 1 <= MAX_EVENTS[npages], (npages, events - 1)
        assert frames - 1 <= MAX_PYTHON_FRAMES[npages], (npages, frames - 1)
        lba += npages
