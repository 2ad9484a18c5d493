"""Unit tests for the FDP-aware device layer (handle -> PID -> DSPEC)."""

import pickle

import pytest

from repro.core import FdpAwareDevice, PlacementHandle
from repro.core.device_layer import DTYPE_DATA_PLACEMENT, DTYPE_NONE
from repro.fdp import PlacementIdentifier
from repro.ssd import SimulatedSSD
from repro.ssd.superblock import SuperblockState


class TestDiscovery:
    def test_discovers_fdp_pids(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        assert layer.allocator.placement_enabled

    def test_conventional_device_degrades(self, conventional_ssd):
        layer = FdpAwareDevice(conventional_ssd)
        assert not layer.allocator.placement_enabled
        assert layer.allocator.allocate("soc").is_default

    def test_placement_switch_off(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd, enable_placement=False)
        assert layer.allocator.allocate("soc").is_default


class TestDirectiveEncoding:
    def test_default_handle_encodes_no_directive(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        dtype, dspec = layer._encode_directive(layer.allocator.default())
        assert dtype == DTYPE_NONE and dspec is None

    def test_bound_handle_roundtrips(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        handle = layer.allocator.allocate("soc")
        dtype, dspec = layer._encode_directive(handle)
        assert dtype == DTYPE_DATA_PLACEMENT
        assert layer._decode_directive(dtype, dspec) == handle.pid

    def test_write_places_via_directive(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        handle = layer.allocator.allocate("soc")
        layer.write(0, 1, handle)
        open_streams = {
            sb.stream
            for sb in fdp_ssd.ftl.superblocks
            if sb.state is SuperblockState.OPEN
        }
        assert ("host", handle.pid.reclaim_group, handle.pid.ruh_id) in open_streams


class TestAccounting:
    def test_bytes_written_per_handle(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        soc = layer.allocator.allocate("soc")
        loc = layer.allocator.allocate("loc")
        layer.write(0, 1, soc)
        layer.write(10, 4, loc)
        page = fdp_ssd.page_size
        assert layer.writes_by_handle["soc"] == page
        assert layer.writes_by_handle["loc"] == 4 * page
        assert layer.bytes_written == 5 * page

    def test_read_accounting(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        layer.write(0, 2, layer.allocator.default())
        mapped, _ = layer.read(0, 2)
        assert mapped
        assert layer.bytes_read == 2 * fdp_ssd.page_size

    def test_deallocate_passthrough(self, fdp_ssd):
        layer = FdpAwareDevice(fdp_ssd)
        layer.write(0, 4, layer.allocator.default())
        assert layer.deallocate(0, 4) == 4


class TestQueues:
    def test_refused_handle_leaves_nothing_in_flight(self, small_geometry):
        """A handle whose PID the device cannot encode is refused before
        the command reaches the device or any counter."""
        ssd = SimulatedSSD(small_geometry, fdp=True, sched=True)
        layer = FdpAwareDevice(ssd)
        bad = PlacementHandle(99, "bad", PlacementIdentifier(0, 500))
        with pytest.raises(ValueError, match="ruh_id out of range"):
            layer.write(0, 1, bad, 0, worker="w")
        assert ssd.scheduler.host_commands == 0
        assert ssd.scheduler.outstanding() == 0
        assert layer.bytes_written == 0 and layer.bytes_read == 0
        assert layer.writes_by_handle == {}
        assert ssd.stats.host_pages_written == 0

    def test_sync_io_keeps_async_completions_for_the_next_poll(
        self, small_geometry
    ):
        """A sync command through the device layer on the worker's queue
        leaves the async commands in flight there to the device's next
        ``poll()``, which returns each exactly once (an earlier version's
        sync path drained the queue and dropped them)."""
        ssd = SimulatedSSD(small_geometry, fdp=True, sched=True)
        layer = FdpAwareDevice(ssd)
        handle = layer.allocator.default()
        first = ssd.submit_async("write", 10, 1, None, 0, queue="w")
        layer.write(11, 1, handle, 0, worker="w")
        second = ssd.submit_async("read", 10, 1, None, 0, queue="w")
        layer.read(11, 1, 0, worker="w")
        third = ssd.submit_async("read", 11, 1, None, 0, queue="w")
        sched = ssd.scheduler
        assert (sched.host_commands, sched.outstanding("w")) == (5, 3)

        (comp,) = ssd.poll("w", max_completions=1)
        assert comp.ticket == first and sched.outstanding("w") == 2
        assert [c.ticket for c in ssd.poll("w")] == [second, third]
        assert ssd.poll("w") == []
        assert sched.outstanding("w") == 0

    def test_region_trim_is_untimed_and_batch_trim_is_timed(
        self, small_geometry
    ):
        """Pins how the scheduler times the two TRIMs the LOC issues:
        ``deallocate`` (its reclaim-unit-aware region TRIM) occupies no
        channel, a ``submit_batch`` trim (its recovery) is one timed
        command on the worker's queue.  Making them agree moves every
        fleet timing, so it is a change of its own."""
        ssd = SimulatedSSD(small_geometry, fdp=True, sched=True)
        layer = FdpAwareDevice(ssd)
        layer.write(0, 8, layer.allocator.default(), 0, worker="loc")
        sched = ssd.scheduler
        assert sched.host_commands == 1
        assert layer.deallocate(0, 4) == 4
        assert sched.host_commands == 1
        (outcome,) = layer.submit_batch([("trim", 4, 4)], 0, "loc")
        assert outcome.ok and outcome.value == 4
        assert sched.host_commands == 2
        assert sched.histograms()["loc"]["trim"].count == 1


class TestPidResolution:
    def test_equal_pids_resolve_alike_whatever_the_handle_is_called(
        self, fdp_ssd
    ):
        """The decode memo is keyed by the PID's two ints: handles that
        differ only in id or name share an entry, and a handle that
        crossed a process boundary (pickled, so its ``name`` hashes
        differently there) still finds it."""
        layer = FdpAwareDevice(fdp_ssd)
        handle = layer.allocator.allocate("soc")
        assert layer._pid_for(handle) == handle.pid
        twin = PlacementHandle(77, "other-name", handle.pid)
        assert layer._pid_for(twin) is layer._pid_for(handle)
        assert layer._pid_for(pickle.loads(pickle.dumps(handle))) is (
            layer._pid_for(handle)
        )
        assert layer._pid_for(layer.allocator.default()) is None
        assert list(layer._pids) == [
            (handle.pid.reclaim_group, handle.pid.ruh_id)
        ]

    def test_conventional_device_drops_the_directive(self, conventional_ssd):
        layer = FdpAwareDevice(conventional_ssd)
        handle = PlacementHandle(1, "soc", PlacementIdentifier(0, 1))
        assert layer._pid_for(handle) is None
        layer.write(0, 1, handle)
        assert conventional_ssd.stats.host_pages_written == 1
