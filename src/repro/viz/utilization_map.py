"""Link-utilization map export (paper §6, Figs. 14-15).

Turns per-ISL utilization (from the fluid engine or the packet simulator's
device counters) into a geographic line set: each used ISL becomes a
segment with endpoint coordinates and a load fraction, ready to be drawn
thick/warm when congested, thin/green when idle — the paper's rendering.
Unused ISLs are excluded, as in Fig. 15.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from ..constellations.builder import Constellation
from ..geo.coordinates import ecef_to_geodetic
from ..obs.metrics import MetricsRegistry
from ..obs.probes import isl_utilization_from_registry

__all__ = ["UtilizationSegment", "utilization_map",
           "utilization_map_from_registry", "hotspot_summary"]


@dataclass(frozen=True)
class UtilizationSegment:
    """One rendered ISL with its load.

    Attributes:
        sat_a / sat_b: Satellite endpoints.
        lat_a / lon_a / lat_b / lon_b: Geodetic endpoints (degrees).
        utilization: Load as a fraction of capacity (may exceed 1 briefly
            in fluid overload transients; clamp when rendering).
    """

    sat_a: int
    sat_b: int
    lat_a: float
    lon_a: float
    lat_b: float
    lon_b: float
    utilization: float


def utilization_map(constellation: Constellation,
                    isl_utilization: Dict[Tuple[int, int], float],
                    time_s: float) -> List[UtilizationSegment]:
    """Render-ready ISL segments at one instant.

    Args:
        constellation: For satellite positions.
        isl_utilization: Directed ISL (a, b) -> load fraction; the two
            directions of a link are merged by maximum.
        time_s: Geometry time.
    """
    positions = constellation.positions_ecef_m(time_s)
    merged: Dict[Tuple[int, int], float] = {}
    for (a, b), load in isl_utilization.items():
        key = (min(a, b), max(a, b))
        merged[key] = max(merged.get(key, 0.0), load)
    segments: List[UtilizationSegment] = []
    for (a, b), load in sorted(merged.items()):
        if load <= 0.0:
            continue  # Fig. 15 excludes ISLs with no traffic
        geo_a = ecef_to_geodetic(positions[a])
        geo_b = ecef_to_geodetic(positions[b])
        segments.append(UtilizationSegment(
            sat_a=a, sat_b=b,
            lat_a=geo_a.latitude_deg, lon_a=geo_a.longitude_deg,
            lat_b=geo_b.latitude_deg, lon_b=geo_b.longitude_deg,
            utilization=float(load),
        ))
    return segments


def utilization_map_from_registry(constellation: Constellation,
                                  registry: MetricsRegistry,
                                  time_s: float
                                  ) -> List[UtilizationSegment]:
    """Render-ready ISL segments straight from a probe's sampled series.

    The packet-simulator path of Figs. 14/15: attach a
    :class:`~repro.obs.probes.SimulatorProbe` to the run and hand its
    registry here — no private device plumbing involved.  Uses the latest
    utilization sample at or before ``time_s``; geometry is evaluated at
    ``time_s`` itself.
    """
    return utilization_map(
        constellation, isl_utilization_from_registry(registry, time_s),
        time_s)


def hotspot_summary(segments: List[UtilizationSegment],
                    hot_threshold: float = 0.8) -> Dict[str, Any]:
    """Where the congested ISLs are (Fig. 15's trans-Atlantic finding).

    Returns:
        Counts of used and hot ISLs, and the mean midpoint
        coordinates of the hot ones — a crude but test-friendly "center
        of congestion".
    """
    if not 0.0 < hot_threshold <= 1.0:
        raise ValueError("hot threshold must be in (0, 1]")
    hot = [seg for seg in segments if seg.utilization >= hot_threshold]
    summary: Dict[str, Any] = {
        "num_used_isls": len([s for s in segments if s.utilization > 0.0]),
        "num_hot_isls": len(hot),
        "hot_threshold": hot_threshold,
    }
    if hot:
        summary["hot_center_lat_deg"] = float(np.mean(
            [(seg.lat_a + seg.lat_b) / 2.0 for seg in hot]))
        summary["hot_center_lon_deg"] = float(np.mean(
            [(seg.lon_a + seg.lon_b) / 2.0 for seg in hot]))
    return summary
