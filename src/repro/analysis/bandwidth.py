"""Bandwidth-fluctuation statistics (paper §5.4, Fig. 10).

Summaries over the fluid engine's unused-bandwidth series: how often, and
by how much, an end-end path's capacity goes unclaimed by transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["UnusedBandwidthStats", "unused_bandwidth_stats"]


@dataclass(frozen=True)
class UnusedBandwidthStats:
    """Summary of one path's unused-bandwidth series.

    Attributes:
        mean_unused_bps: Average unused capacity over connected snapshots.
        fraction_above_third: Fraction of connected time with more than a
            third of the capacity unused (the paper's headline number:
            31% dynamic vs 11% static).
        fraction_fully_used: Fraction of connected time at (near) zero
            unused capacity.
        connected_fraction: Fraction of snapshots with a path at all.
    """

    mean_unused_bps: float
    fraction_above_third: float
    fraction_fully_used: float
    connected_fraction: float


def unused_bandwidth_stats(unused_bps: np.ndarray,
                           link_capacity_bps: float
                           ) -> UnusedBandwidthStats:
    """Summarize an unused-bandwidth series (nan = disconnected).

    Args:
        unused_bps: Series from :meth:`FluidResult.unused_bandwidth_bps`.
        link_capacity_bps: The path's (uniform) link capacity.

    Unused capacity at or below 1% of capacity counts as "fully used".
    """
    if link_capacity_bps <= 0.0:
        raise ValueError("capacity must be positive")
    full_use_tolerance_bps = 0.01 * link_capacity_bps
    series = np.asarray(unused_bps, dtype=float)
    mask = ~np.isnan(series)
    if not mask.any():
        return UnusedBandwidthStats(
            mean_unused_bps=float("nan"), fraction_above_third=0.0,
            fraction_fully_used=0.0, connected_fraction=0.0)
    valid = series[mask]
    return UnusedBandwidthStats(
        mean_unused_bps=float(valid.mean()),
        fraction_above_third=float(
            (valid > link_capacity_bps / 3.0).mean()),
        fraction_fully_used=float(
            (valid <= full_use_tolerance_bps).mean()),
        connected_fraction=float(mask.mean()),
    )
