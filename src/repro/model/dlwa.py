"""Theoretical DLWA model for FDP-enabled CacheLib (paper §4.2, App. A).

Under SOC/LOC segregation the LOC contributes no write amplification
(sequential, self-invalidating), so the cache's DLWA equals the SOC's.
Modelling SOC bucket updates as uniform random writes over the SOC LBA
space with greedy GC gives (Theorem 1):

    delta = -(S_soc / S_psoc) * W(-(S_psoc / S_soc) * exp(-S_psoc / S_soc))
    DLWA  = 1 / (1 - delta)

where ``S_soc`` is the SOC logical size, ``S_psoc`` the physical space
available to SOC data (SOC size + device overprovisioning, since the
LOC uses none of it), and ``W`` the Lambert W function (principal
branch of the defining equation; the relevant solution here lies on
the -1 branch for delta in (0, 1)).

The module also provides the intermediate quantities of Appendix A so
tests can check each derivation step.
"""

from __future__ import annotations

import math

__all__ = [
    "average_live_migration",
    "dlwa_fdp",
    "dlwa_from_delta",
    "soc_physical_space",
    "validate_ratio",
]


def validate_ratio(s_soc: float, s_psoc: float) -> float:
    """Check sizes and return ``r = S_soc / S_psoc`` in (0, 1].

    ``r -> 0`` means abundant spare space (DLWA -> 1); ``r = 1`` means
    no spare at all (DLWA -> infinity).
    """
    if s_soc <= 0:
        raise ValueError("S_soc must be positive")
    if s_psoc < s_soc:
        raise ValueError(
            "S_P-SOC must be at least S_soc (it includes the SOC itself)"
        )
    return s_soc / s_psoc


def average_live_migration(s_soc: float, s_psoc: float) -> float:
    """Theorem 1's delta: mean fraction of live SOC buckets migrated
    per GC of an SOC erase block.

    Solves ``r = (delta - 1) / ln(delta)`` (Eq. 14) via the Lambert W
    form (Eq. 15).  For ``r = 1`` the equation's solution is
    ``delta = 1`` (every page still live when GC arrives).
    """
    # Imported here: loading scipy.special costs every process that
    # imports repro ~0.2 s and ~20 MiB, and nothing else uses it.
    from scipy.special import lambertw

    r = validate_ratio(s_soc, s_psoc)
    if r == 1.0:
        return 1.0
    inv = 1.0 / r  # S_psoc / S_soc
    arg = -inv * math.exp(-inv)
    # delta in (0, 1) corresponds to the principal branch W_0: for arg
    # in (-1/e, 0), the W_{-1} branch returns -1/r, i.e. the trivial
    # root delta = 1.
    w = lambertw(arg, k=0)
    delta = float((-r * w).real)
    # Numerical guard: delta must land in [0, 1).
    return min(max(delta, 0.0), 1.0)


def dlwa_from_delta(delta: float) -> float:
    """Equation 16: DLWA = 1 / (1 - delta)."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must be in [0, 1]")
    if delta >= 1.0:
        return math.inf
    return 1.0 / (1.0 - delta)


def soc_physical_space(
    soc_bytes: float, device_physical_bytes: float, device_logical_bytes: float
) -> float:
    """Appendix A Eq. 6: S_P-SOC = S_soc + S_OP.

    With segregation the LOC's sequential pattern needs no spare space,
    so the *entire* device overprovisioning cushions the SOC.
    """
    if device_physical_bytes < device_logical_bytes:
        raise ValueError("physical capacity below logical capacity")
    op_bytes = device_physical_bytes - device_logical_bytes
    return soc_bytes + op_bytes


def dlwa_fdp(s_soc: float, s_psoc: float) -> float:
    """Theorem 1: the DLWA of FDP-enabled CacheLib."""
    return dlwa_from_delta(average_live_migration(s_soc, s_psoc))
