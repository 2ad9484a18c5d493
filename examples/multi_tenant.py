#!/usr/bin/env python3
"""Multi-tenant flash caching on one FDP SSD (the paper's Section 6.7).

Without FDP, production CacheLib reserves ~50% of the SSD as host
overprovisioning just to keep DLWA acceptable — so sharing a device
between tenants was off the table.  With FDP segregation, DLWA stays
~1 with no host OP at all, freeing that capacity for a second tenant.

This example runs two independent HybridCache tenants over one shared
simulated SSD.  Each tenant's SOC and LOC get their own reclaim unit
handles from the shared allocator (4 RUHs in use), exactly the
placement policy of Figure 11.

Run:  python examples/multi_tenant.py
"""

from repro.bench import DEFAULT_SCALE, CacheBench, make_trace
from repro.cache import CacheConfig, HybridCache
from repro.cache.hybrid import METADATA_PAGES
from repro.core import FdpAwareDevice
from repro.ssd import SimulatedSSD

OPS_PER_TENANT = 200_000
NUM_TENANTS = 2


def run_arm(fdp: bool) -> SimulatedSSD:
    geometry = DEFAULT_SCALE.geometry()
    device = SimulatedSSD(geometry, fdp=fdp)
    io = FdpAwareDevice(device, enable_placement=fdp)

    # Partition the LBA space into equal tenant shares, no host OP.
    share = geometry.logical_bytes // NUM_TENANTS - METADATA_PAGES * geometry.page_size
    tenants = []
    base_lba = 0
    for t in range(NUM_TENANTS):
        config = CacheConfig.for_flash_cache(
            share,
            page_size=geometry.page_size,
            soc_fraction=0.04,
            region_bytes=DEFAULT_SCALE.region_bytes,
            name=f"tenant-{t}",
            base_lba=base_lba,
            enable_fdp_placement=fdp,
        )
        cache = HybridCache(io=io, config=config)
        base_lba = cache._layout_end_lba
        tenants.append(cache)

    handles = sorted(
        f"{name}: RUH {h.pid.ruh_id}" if h.pid else f"{name}: default"
        for cache in tenants
        for name, h in (
            (cache.soc.handle.name, cache.soc.handle),
            (cache.loc.handle.name, cache.loc.handle),
        )
    )
    print(f"  placement handles: {handles}")

    # Interleave the two tenants' write-only workloads in time chunks.
    bench = CacheBench()
    traces = [
        make_trace(
            "wo-kvcache",
            tenants[t].config.nvm_bytes,
            num_ops=OPS_PER_TENANT,
            seed=100 + t,
        )
        for t in range(NUM_TENANTS)
    ]
    chunk = 25_000
    for start in range(0, OPS_PER_TENANT, chunk):
        for t, cache in enumerate(tenants):
            bench.run(cache, traces[t].slice(start, start + chunk))
    return device


def main() -> None:
    print(
        f"Two WO KV Cache tenants sharing one "
        f"{DEFAULT_SCALE.geometry().physical_bytes // 2**20} MiB SSD, "
        f"no host overprovisioning\n"
    )
    results = {}
    for fdp in (True, False):
        print(f"{'FDP' if fdp else 'Non-FDP'} arm:")
        device = run_arm(fdp)
        results[fdp] = device
        print(
            f"  device DLWA = {device.dlwa:.2f}, "
            f"GC relocations = {device.events.media_relocated_events}\n"
        )

    print(
        f"FDP keeps the shared device at DLWA "
        f"{results[True].dlwa:.2f} vs {results[False].dlwa:.2f} without "
        f"segregation ({results[False].dlwa / results[True].dlwa:.1f}x, "
        f"paper: ~3.5x) — multi-tenant flash caching becomes viable."
    )


if __name__ == "__main__":
    main()
