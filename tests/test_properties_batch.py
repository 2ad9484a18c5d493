"""Property test: the FTL's one write path against the per-page oracle.

Hypothesis drives three things at once:

* **the command stream** — write extents sized to straddle reclaim-unit
  (superblock) boundaries, TRIMs, reads, multiple placement IDs, and an
  optional external power cut between two commands, all on a device a
  fixed warm-up stream has already driven into garbage collection;
* **the fault plan** — scripted program failures (single ones and a run
  long enough to end a command with Write Fault), power cuts at a host
  page, an erase failure, silent corruptions;
* **the chunk splitting** — with an empty plan, whether production
  still carries a fault model (so every host page is a one-page chunk
  with the hooks consulted) or runs clean (whole-superblock chunks),
  and whether a quiescent latent model rides along.

Whatever GC triggers, write-point rolls, retirements, tears or
recoveries the combination provokes, the production device and the
oracle (``tests/reference_ftl.py``) must log the same outcomes and end
in the same state under ``assert_identical``: a chunk, of any size, may
never reorder work across a GC trigger point, a bad page or a
torn-write boundary relative to programming page by page.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.latent import LatentErrorConfig
from repro.faults.model import FaultConfig
from repro.faults.plan import OP_POWER, OP_PROGRAM, OP_SILENT, ScriptedFault
from repro.fdp import PlacementIdentifier
from repro.ssd import Geometry, SimulatedSSD
from repro.ssd.errors import DeviceFullError
from repro.ssd.ftl import MAX_PROGRAM_ATTEMPTS
from tests.reference_ftl import ReferenceSSD
from tests.test_differential_batch import assert_identical, replay_steps

GEOMETRY = Geometry(
    page_size=4096,
    pages_per_block=4,
    planes_per_die=2,
    dies=2,
    num_superblocks=24,
    op_fraction=0.15,
)
PAGES_PER_SUPERBLOCK = GEOMETRY.pages_per_superblock
SPAN = int(GEOMETRY.logical_pages * 0.75)

# Extents up to 2.5 reclaim units guarantee multi-chunk splits.
command = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(min_value=0, max_value=SPAN - 1),
        st.integers(min_value=1, max_value=PAGES_PER_SUPERBLOCK * 5 // 2),
        st.integers(min_value=0, max_value=3),
    ),
    st.tuples(
        st.just("trim"),
        st.integers(min_value=0, max_value=SPAN - 1),
        st.integers(min_value=1, max_value=PAGES_PER_SUPERBLOCK),
        st.just(0),
    ),
    st.tuples(
        st.just("read"),
        st.integers(min_value=0, max_value=SPAN - 1),
        st.integers(min_value=1, max_value=PAGES_PER_SUPERBLOCK),
        st.just(0),
    ),
)


def _warm_up():
    """A fixed stream that runs before the drawn one: it fills the span
    and overwrites enough of it at random that GC is already migrating
    when the first drawn command arrives."""
    rng = random.Random(0x5EED)
    stream = [
        ("write", lba, min(20, SPAN - lba), lba % 4)
        for lba in range(0, SPAN, 20)
    ]
    for _ in range(40):
        npages = rng.randrange(1, 13)
        stream.append(
            ("write", rng.randrange(SPAN - npages), npages, rng.randrange(4))
        )
    return stream


WARM_UP = _warm_up()
WARM_UP_PAGES = sum(npages for _, _, npages, _ in WARM_UP)

# Operation indices the drawn stream reaches (host pages for power cuts
# and corruptions, all programs — GC's too — for failures): past the
# warm-up's host pages, so most land among the drawn commands.
op_indices = st.integers(
    min_value=WARM_UP_PAGES - 50, max_value=WARM_UP_PAGES + 700
)


@st.composite
def fault_plans(draw):
    """(FaultModel plan, latent plan): scripted entries, possibly none."""
    plan = [
        ScriptedFault(op=OP_PROGRAM, op_index=i)
        for i in draw(st.lists(op_indices, max_size=4, unique=True))
    ]
    burst = draw(st.none() | op_indices)
    if burst is not None:
        plan += [
            ScriptedFault(op=OP_PROGRAM, op_index=burst + k)
            for k in range(MAX_PROGRAM_ATTEMPTS)
        ]
    plan += [
        ScriptedFault(op=OP_POWER, op_index=i)
        for i in draw(st.lists(op_indices, max_size=2, unique=True))
    ]
    retired = draw(st.none() | st.integers(0, GEOMETRY.num_superblocks - 1))
    if retired is not None:
        plan.append(ScriptedFault(op="erase", superblock=retired))
    silent = [
        ScriptedFault(op=OP_SILENT, op_index=i)
        for i in draw(st.lists(op_indices, max_size=3, unique=True))
    ]
    return tuple(plan), tuple(silent)


common = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def replay(device, commands, cut_at):
    log = []
    steps = replay_steps(device, commands)
    for i in range(len(commands)):
        if i == cut_at:
            report = device.power_cut()
            log.append(("cut", len(report.torn_writes)))
            device.recover()
        try:
            log.extend(next(steps))
        except DeviceFullError:
            log.append(("full",))
            break
    return log


@given(
    commands=st.lists(command, max_size=120),
    use_pids=st.booleans(),
    cut_at=st.none() | st.integers(min_value=0, max_value=119),
    plans=fault_plans(),
    one_page_chunks=st.booleans(),
    quiescent_latent=st.booleans(),
)
@common
def test_batched_extents_match_per_page_path(
    commands, use_pids, cut_at, plans, one_page_chunks, quiescent_latent
):
    commands = [
        (
            op,
            lba,
            min(npages, SPAN - lba),
            PlacementIdentifier(0, ruh) if use_pids and op == "write" else None,
            ("t", i),
        )
        for i, (op, lba, npages, ruh) in enumerate(WARM_UP + commands)
    ]
    if cut_at is not None:
        cut_at += len(WARM_UP)
    plan, silent = plans
    kwargs = dict(fdp=use_pids)
    if plan or one_page_chunks:
        kwargs["faults"] = FaultConfig(plan=plan)
    if silent or quiescent_latent:
        kwargs["latent"] = LatentErrorConfig(plan=silent)
    oracle = ReferenceSSD(GEOMETRY, **kwargs)
    production = SimulatedSSD(GEOMETRY, **kwargs)
    assert production.ftl._page_hooks == bool(plan or one_page_chunks or silent)
    assert replay(oracle, commands, cut_at) == replay(
        production, commands, cut_at
    )
    assert_identical(oracle, production)
