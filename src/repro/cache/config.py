"""Hybrid-cache configuration.

Collects the deployment knobs the paper's experiments sweep: DRAM cache
size, flash cache size split between SOC and LOC, the small/large
routing threshold, LOC region size, the FDP enable switch, and the
admission policy.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from .admission import AcceptAll, AdmissionPolicy

__all__ = ["CacheConfig"]


@dataclasses.dataclass
class CacheConfig:
    """Configuration for one :class:`~repro.cache.hybrid.HybridCache`.

    Sizes are in bytes.  ``soc_bytes + loc_bytes`` (plus the
    :data:`~repro.cache.hybrid.METADATA_PAGES` slice) must fit inside
    the device LBA range starting at ``base_lba`` — the constructor of
    the hybrid cache validates this against the actual device.

    The paper's default deployment shape: SOC = 4 % of the flash cache,
    LOC = 96 %, DRAM ≈ 4.5 % of the flash cache, 2 KiB small-object
    threshold, FIFO region eviction.  Engine flushes always carry their
    self-describing metadata (sealed-region headers, bucket manifests)
    so :meth:`~repro.cache.hybrid.HybridCache.recover` can warm-restart.
    """

    name: str = "cache-0"
    dram_bytes: int = 16 * 1024 * 1024
    soc_bytes: int = 4 * 1024 * 1024
    loc_bytes: int = 96 * 1024 * 1024
    small_item_threshold: int = 2048
    region_bytes: int = 256 * 1024
    ru_aware_trim: bool = False
    enable_fdp_placement: bool = True
    base_lba: int = 0
    metadata_flush_interval: int = 4096
    admission: Optional[AdmissionPolicy] = None
    # When set, the admission policy is reseeded with this value at
    # construction — the fix for randomized admission policies silently
    # keeping their class-default seeds across sweep points.  Benches
    # thread the point's ``point_seed`` here (see
    # repro.bench.runner.build_experiment); ``None`` leaves whatever
    # seed the policy was constructed with.
    admission_seed: Optional[int] = None
    # Small-object engine selection: CacheLib's set-associative SOC,
    # the Kangaroo-style log-plus-sets extension (see
    # repro.cache.kangaroo), or the Nemo-style log-structured store
    # with a set-associative DRAM index (see repro.cache.nemo).
    soc_engine: str = "set-associative"
    kangaroo_log_fraction: float = 0.05
    kangaroo_move_threshold: int = 2
    # Nemo engine knobs: reclaim granularity (pages per FIFO region),
    # index associativity (ways per set), and the cap on reinsertion
    # write amplification (fraction of a reclaimed region's bytes that
    # hot items may re-consume; 0 = pure FIFO drop-all).
    nemo_region_pages: int = 8
    nemo_index_ways: int = 8
    nemo_reinsert_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.dram_bytes <= 0:
            raise ValueError("dram_bytes must be positive")
        if self.soc_bytes < 0 or self.loc_bytes <= 0:
            raise ValueError("flash sizes must be positive (soc may be 0)")
        if self.small_item_threshold < 0:
            raise ValueError("small_item_threshold must be non-negative")
        if self.region_bytes <= 0:
            raise ValueError("region_bytes must be positive")
        if self.base_lba < 0:
            raise ValueError("base_lba must be non-negative")
        if self.metadata_flush_interval <= 0:
            raise ValueError("metadata_flush_interval must be positive")
        if self.soc_engine not in ("set-associative", "kangaroo", "nemo"):
            raise ValueError(f"unknown soc_engine {self.soc_engine!r}")
        if not 0.0 < self.kangaroo_log_fraction < 1.0:
            raise ValueError("kangaroo_log_fraction must be in (0, 1)")
        if self.kangaroo_move_threshold < 1:
            raise ValueError("kangaroo_move_threshold must be >= 1")
        if self.nemo_region_pages < 1:
            raise ValueError("nemo_region_pages must be >= 1")
        if self.nemo_index_ways < 1:
            raise ValueError("nemo_index_ways must be >= 1")
        if not 0.0 <= self.nemo_reinsert_fraction <= 1.0:
            raise ValueError("nemo_reinsert_fraction must be in [0, 1]")
        if self.admission is None:
            self.admission = AcceptAll()
        if self.admission_seed is not None:
            self.admission.reseed(self.admission_seed)

    @property
    def nvm_bytes(self) -> int:
        """Total flash-cache bytes (SOC + LOC)."""
        return self.soc_bytes + self.loc_bytes

    @classmethod
    def for_flash_cache(
        cls,
        nvm_bytes: int,
        *,
        page_size: int = 4096,
        soc_fraction: float = 0.04,
        dram_fraction: float = 0.045,
        dram_bytes: Optional[int] = None,
        **overrides: object,
    ) -> "CacheConfig":
        """Build the paper's deployment shape from a flash-cache size.

        ``soc_fraction`` is the SOC share of the flash cache (4 %
        default, swept in Figure 9); DRAM defaults to the paper's
        42 GB : 930 GB ratio unless given explicitly.
        """
        if nvm_bytes <= 0:
            raise ValueError("nvm_bytes must be positive")
        if not 0.0 < soc_fraction < 1.0:
            raise ValueError("soc_fraction must be in (0, 1)")
        soc_bytes = int(nvm_bytes * soc_fraction)
        # Align the SOC to whole buckets/pages.
        soc_bytes -= soc_bytes % page_size
        soc_bytes = max(soc_bytes, page_size)
        loc_bytes = nvm_bytes - soc_bytes
        if dram_bytes is None:
            dram_bytes = max(page_size, int(nvm_bytes * dram_fraction))
        return cls(
            dram_bytes=dram_bytes,
            soc_bytes=soc_bytes,
            loc_bytes=loc_bytes,
            **overrides,  # type: ignore[arg-type]
        )
