"""Carbon-emission models (paper §4.2.1, Theorems 2 and 3).

* **Embodied** (Theorem 2): SSDs wear out ``DLWA`` times faster, so
  over a system lifecycle of ``T`` years a deployment consumes
  ``DLWA * T / L_dev`` device-lifetimes of flash, each costing
  ``C_ssd`` KgCO2e per GB manufactured.  The paper uses T = L_dev = 5
  years and 0.16 KgCO2e/GB (Tannu & Nair).
* **Operational** (Theorem 3): operational energy is proportional to
  host operations plus GC migrations; converting kWh to CO2e uses a
  grid intensity factor (EPA greenhouse-gas equivalence, ~0.39
  KgCO2e/kWh for the US grid).
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "CarbonParams",
    "embodied_co2e_kg",
    "operational_co2e_kg",
    "total_co2e_kg",
]

GIB = 1024**3


@dataclasses.dataclass(frozen=True)
class CarbonParams:
    """Constants for the carbon model (paper defaults)."""

    system_lifecycle_years: float = 5.0
    ssd_warranty_years: float = 5.0
    ssd_co2e_per_gb: float = 0.16  # KgCO2e per GB manufactured
    grid_co2e_per_kwh: float = 0.39  # KgCO2e per kWh (EPA eGRID-like)

    def __post_init__(self) -> None:
        if self.system_lifecycle_years <= 0:
            raise ValueError("system_lifecycle_years must be positive")
        if self.ssd_warranty_years <= 0:
            raise ValueError("ssd_warranty_years must be positive")
        if self.ssd_co2e_per_gb < 0 or self.grid_co2e_per_kwh < 0:
            raise ValueError("emission factors must be non-negative")


def embodied_co2e_kg(
    dlwa: float,
    device_capacity_bytes: float,
    params: CarbonParams = CarbonParams(),
) -> float:
    """Theorem 2: embodied CO2e of the SSDs consumed over the lifecycle.

        C_embodied = DLWA * Device_cap * (T / L_dev) * C_ssd

    ``DLWA`` scales consumption because endurance burns DLWA times
    faster; replacement count is pro-rated over the lifecycle.
    """
    if dlwa < 1.0:
        raise ValueError("DLWA cannot be below 1")
    if device_capacity_bytes <= 0:
        raise ValueError("device capacity must be positive")
    capacity_gb = device_capacity_bytes / 1e9
    replacements = params.system_lifecycle_years / params.ssd_warranty_years
    return dlwa * capacity_gb * replacements * params.ssd_co2e_per_gb


def operational_co2e_kg(
    energy_kwh: float, params: CarbonParams = CarbonParams()
) -> float:
    """Theorem 3 (converted): operational CO2e from energy consumed.

    The energy itself comes from
    :meth:`~repro.ssd.device.SimulatedSSD.energy_kwh`, which prices the
    device counters' host operations and GC migrations per op with
    :class:`~repro.ssd.energy.EnergyCosts` — exactly the
    proportionality Theorem 3 states.
    """
    if energy_kwh < 0:
        raise ValueError("energy must be non-negative")
    return energy_kwh * params.grid_co2e_per_kwh


def total_co2e_kg(
    dlwa: float,
    device_capacity_bytes: float,
    energy_kwh: float,
    params: CarbonParams = CarbonParams(),
) -> float:
    """Total = embodied + operational (paper §4.2.1)."""
    return embodied_co2e_kg(dlwa, device_capacity_bytes, params) + (
        operational_co2e_kg(energy_kwh, params)
    )
