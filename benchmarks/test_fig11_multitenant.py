"""Figure 11: multi-tenant deployment, two WO KV Cache tenants.

Paper result: two CacheLib instances share one SSD with no host
overprovisioning, each tenant's SOC and LOC mapped to its own RUHs;
DLWA stays ~1 under FDP vs ~3.5 without (a 3.5x reduction).
"""

from conftest import emit_table

from repro.bench import DEFAULT_SCALE, CacheBench, make_trace
from repro.bench.figures import BASE_OPS
from repro.cache import CacheConfig, HybridCache
from repro.cache.hybrid import METADATA_PAGES
from repro.core import FdpAwareDevice
from repro.ssd import SimulatedSSD

NUM_TENANTS = 2
OPS_PER_TENANT = BASE_OPS


def _run_multitenant(fdp: bool):
    geometry = DEFAULT_SCALE.geometry()
    device = SimulatedSSD(geometry, fdp=fdp)
    io = FdpAwareDevice(device, enable_placement=fdp)
    share = geometry.logical_bytes // NUM_TENANTS
    bench = CacheBench()
    base_lba = 0
    results = []
    tenants = []
    for t in range(NUM_TENANTS):
        config = CacheConfig.for_flash_cache(
            share - METADATA_PAGES * geometry.page_size,
            page_size=geometry.page_size,
            soc_fraction=0.04,
            dram_fraction=DEFAULT_SCALE.dram_fraction,
            region_bytes=DEFAULT_SCALE.region_bytes,
            name=f"tenant-{t}",
            base_lba=base_lba,
            enable_fdp_placement=fdp,
        )
        cache = HybridCache(io=io, config=config)
        base_lba = cache._layout_end_lba
        tenants.append((cache, config))
    # Interleave tenant replays in chunks so their write streams mix in
    # time (as two live instances would), not one after the other.
    traces = [
        make_trace(
            "wo-kvcache", cfg.nvm_bytes, num_ops=OPS_PER_TENANT, seed=21 + t
        )
        for t, (cache, cfg) in enumerate(tenants)
    ]
    chunk = 50_000
    partials = []
    for start in range(0, OPS_PER_TENANT, chunk):
        for t, (cache, _) in enumerate(tenants):
            partials.append(
                bench.run(
                    cache,
                    traces[t].slice(start, start + chunk),
                    name=f"tenant-{t}",
                )
            )
    return device, partials


def test_fig11_multitenant(once):
    def run():
        fdp_device, _ = _run_multitenant(True)
        non_device, _ = _run_multitenant(False)
        return fdp_device, non_device

    fdp_device, non_device = once(run)

    lines = [
        "Figure 11: two WO KV Cache tenants sharing one SSD, no host OP",
        f"{'arm':>8} {'device DLWA':>12} {'GC reloc events':>16}",
        f"{'FDP':>8} {fdp_device.dlwa:>12.2f} "
        f"{fdp_device.events.media_relocated_events:>16}",
        f"{'Non-FDP':>8} {non_device.dlwa:>12.2f} "
        f"{non_device.events.media_relocated_events:>16}",
        f"reduction: {non_device.dlwa / fdp_device.dlwa:.2f}x "
        f"(paper: ~3.5x)",
    ]
    emit_table("fig11_multitenant", lines)

    assert fdp_device.dlwa < 1.15
    assert non_device.dlwa > 1.5 * fdp_device.dlwa
