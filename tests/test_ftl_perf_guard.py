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
23 (12 and 13 frames), then to 12 and 18 (6 and 8 frames) once the
chain stopped calling its hooks when they have nothing to do, read its
stream and duration memos inline and recorded the command without a
Python ``__init__``.  The bars are what it measures since a one-page
chunk stamps its OOB record and journal entry in line and a chunk's
LBA ramp serves its P2L and OOB stores both: 10 and 16 (4 and 7
frames).  None may rise.

A GC pass is guarded the same way: its call events may not grow with
the victim's live pages (``test_a_gc_pass_costs_per_run_not_per_page``).
"""

from __future__ import annotations

import gc
import sys

from repro.bench.driver import collector_paused
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

MAX_EVENTS = {1: 10, 40: 16}
MAX_PYTHON_FRAMES = {1: 4, 40: 7}


def call_events(fn):
    """(all call events, Python frames only) while ``fn()`` runs, with
    the collector paused (see ``test_a_collector_pass_does_not_count``)."""
    counts = {"call": 0, "c_call": 0}

    def profiler(frame, event, arg):
        if event in counts:
            counts[event] += 1

    with collector_paused():
        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
    # Leaving the profiled region is itself one C call (setprofile).
    return counts["call"] + counts["c_call"] - 1, counts["call"]


def test_a_collector_pass_does_not_count():
    """A collector pass inside the profiled region runs every
    ``gc.callbacks`` hook (Hypothesis installs one) as a Python frame,
    so the count would depend on which tests ran before."""

    def one_page_write():
        device = SimulatedSSD(GEOMETRY)
        now = device.write(0, 1, now_ns=0, payload="warm")
        return call_events(lambda: device.write(1, 1, None, now, "x"))

    quiet = one_page_write()
    threshold = gc.get_threshold()
    hook = lambda phase, info: None
    gc.callbacks.append(hook)
    gc.set_threshold(1)
    try:
        noisy = one_page_write()
    finally:
        gc.callbacks.remove(hook)
        gc.set_threshold(*threshold)
    assert noisy == quiet


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


# Call events a GC pass over a victim of 100 live pages may add to one
# over 10: none is per page (the parent added one ``list.append`` per
# moved page, each its own journal run here: 90 more).
MAX_GC_GROWTH = 2


def gc_victim(live):
    """A clean device whose one CLOSED superblock holds ``live`` live
    pages, every other LBA apart (so each is its own journal run), with
    an empty journal buffer; returns ``(device, now_ns)``."""
    device = SimulatedSSD(GEOMETRY)
    pps = GEOMETRY.pages_per_superblock
    now = 0
    for i in range(pps):
        now = device.write(2 * i, 1, now_ns=now, payload=i)
    for i in range(live, pps):  # the overwrites fill the next superblock
        now = device.write(2 * i, 1, now_ns=now, payload=-i)
    ftl = device.ftl
    ftl._journal.force_flush()
    assert ftl._closed == [0] and ftl.superblocks[0].valid_pages == live
    return device, now


def test_a_gc_pass_costs_per_run_not_per_page():
    events = {}
    for live in (10, 10, 100):  # the first pass fills the memos
        device, now = gc_victim(live)
        events[live], _ = call_events(lambda: device.ftl._collect_one(now))
        assert device.stats.gc_pages_migrated == live
        device.check_invariants()
    assert events[100] <= events[10] + MAX_GC_GROWTH, events
