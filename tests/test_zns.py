"""Tests for the ZNS device mode and the host-side log store."""

import hashlib
import random

import pytest

from repro.ssd import DeviceFullError, Geometry, OutOfRangeError
from repro.ssd.zns import ZonedSSD, ZoneError, ZoneState, ZnsHostLog
from tests.test_golden_regression import _check_golden


@pytest.fixture
def zns(small_geometry: Geometry) -> ZonedSSD:
    return ZonedSSD(small_geometry)


class TestZoneStateMachine:
    def test_fresh_device_all_empty(self, zns):
        assert len(zns.zones) == zns.num_zones
        assert all(
            zone.state is ZoneState.EMPTY and zone.write_pointer == 0
            for zone in zns.zones
        )

    def test_append_opens_zone(self, zns):
        lba = zns.zone_append(0, 1)
        assert lba == 0
        assert zns.zones[0].state is ZoneState.OPEN

    def test_appends_are_sequential(self, zns):
        first = zns.zone_append(3, 2)
        second = zns.zone_append(3, 1)
        assert second == first + 2

    def test_zone_fills(self, zns):
        zns.zone_append(0, zns.zone_pages)
        assert zns.zones[0].state is ZoneState.FULL
        with pytest.raises(ZoneError):
            zns.zone_append(0, 1)

    def test_append_cannot_cross_zone(self, zns):
        zns.zone_append(0, zns.zone_pages - 1)
        with pytest.raises(ZoneError):
            zns.zone_append(0, 2)

    def test_reset_returns_to_empty(self, zns):
        zns.zone_append(0, zns.zone_pages)
        zns.reset_zone(0)
        zone = zns.zones[0]
        assert zone.state is ZoneState.EMPTY
        assert zone.write_pointer == 0
        assert zone.resets == 1

    def test_reset_empty_is_noop(self, zns):
        zns.reset_zone(0)
        assert zns.zones[0].resets == 0

    def test_bad_zone_id(self, zns):
        with pytest.raises(OutOfRangeError):
            zns.zone_append(zns.num_zones, 1)


class TestZnsDlwa:
    def test_device_never_amplifies(self, zns):
        rng = random.Random(1)
        for _ in range(50):
            zone = rng.randrange(zns.num_zones)
            if zns.zones[zone].state is ZoneState.FULL:
                zns.reset_zone(zone)
            zns.zone_append(zone, rng.randrange(1, 4))
        assert zns.dlwa == 1.0
        assert (
            zns.stats.nand_pages_written == zns.stats.host_pages_written
        )


class TestZnsHostLog:
    def test_put_maps_key_to_its_page(self, zns):
        log = ZnsHostLog(zns)
        log.put(1)
        log.put(2)
        assert log._key_page == {1: 0, 2: 1}
        assert log._page_key == {0: 1, 1: 2}
        assert zns.zones[0].write_pointer == 2

    def test_update_invalidates_old_page(self, zns):
        log = ZnsHostLog(zns)
        log.put(1)
        log.put(1)
        assert len(log._key_page) == 1
        assert log.appended_pages == 2

    def test_no_updates_means_no_host_waf(self, zns):
        log = ZnsHostLog(zns)
        # Unique keys, no updates: once space runs out, GC victims are
        # fully live, so keep within capacity.
        for k in range(zns.zone_pages * 4):
            log.put(k)
        assert log.host_waf == 1.0

    def test_host_gc_compacts_and_amplifies(self, zns):
        log = ZnsHostLog(zns)
        rng = random.Random(2)
        capacity = zns.num_zones * zns.zone_pages
        hot = capacity // 3
        # Update a hot set far beyond device capacity: host GC must run.
        for _ in range(4 * capacity):
            log.put(rng.randrange(hot))
        assert log.host_copied_pages > 0
        assert log.host_waf > 1.0
        # Device-level WAF stays 1 even while the host amplifies.
        assert zns.dlwa == 1.0

    def test_overfill_with_all_live_raises(self, small_geometry):
        zns = ZonedSSD(small_geometry)
        log = ZnsHostLog(zns)
        with pytest.raises(DeviceFullError):
            for k in range(zns.num_zones * zns.zone_pages + 1):
                log.put(k)

    def test_reserve_validation(self, zns):
        with pytest.raises(ValueError):
            ZnsHostLog(zns, reserve_zones=0)


def host_log_stream(geometry: Geometry) -> dict:
    """A seeded skewed update stream through a ``ZnsHostLog`` that runs
    host GC many times over; the state it leaves behind."""
    device = ZonedSSD(geometry)
    log = ZnsHostLog(device, reserve_zones=3)
    rng = random.Random(0x2A5)
    capacity = device.num_zones * device.zone_pages
    span = capacity * 3 // 4
    hot = span // 5
    for _ in range(4 * capacity):
        log.put(rng.randrange(hot if rng.random() < 0.8 else span))
    return {
        "appended_pages": log.appended_pages,
        "host_copied_pages": log.host_copied_pages,
        "superblocks_erased": device.stats.superblocks_erased,
        "zones": [
            [zone.write_pointer, zone.state.value, zone.resets]
            for zone in device.zones
        ],
        "key_page_sha256": hashlib.sha256(
            repr(sorted(log._key_page.items())).encode()
        ).hexdigest(),
    }


def test_golden_host_log_stream(small_geometry, update_golden):
    """Pins host GC's victim choice (the first full zone with the fewest
    live pages) and every zone it leaves, appended/copied counts and
    the key map included."""
    data = host_log_stream(small_geometry)
    assert data["host_copied_pages"] > 0
    _check_golden("zns_host_log_stream", data, update_golden)
