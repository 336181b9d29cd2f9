"""Coverage analysis: who can connect, where (paper §6's coverage story).

Fig. 11's qualitative observations — Telesat's near-polar shell covers the
poles, Kuiper/Starlink concentrate on the populated mid-latitudes, S1
"will not extend service to less populated regions at high latitudes"
(§2.2) — become quantitative here: for a grid of latitudes, the fraction
of longitudes (and times) at which a ground station would see at least one
satellite above the minimum elevation angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..constellations.builder import Constellation
from ..geo.coordinates import GeodeticPosition
from ..ground.stations import GroundStation
from ..ground.visibility import elevation_angles_deg

__all__ = ["LatitudeCoverage", "coverage_by_latitude"]

#: Longitude samples per latitude band (uniformly spread).
LONGITUDES_DEG = np.linspace(-180.0, 180.0, 12, endpoint=False)

#: Probe times, averaging over satellite motion.
SAMPLE_TIMES_S = (0.0, 120.0, 240.0)


@dataclass(frozen=True)
class LatitudeCoverage:
    """Coverage statistics at one latitude.

    Attributes:
        latitude_deg: The latitude band probed.
        covered_fraction: Fraction of (longitude, time) samples with at
            least one connectable satellite.
        mean_visible: Mean number of connectable satellites per sample.
    """

    latitude_deg: float
    covered_fraction: float
    mean_visible: float


def coverage_by_latitude(constellation: Constellation,
                         min_elevation_deg: float,
                         latitudes_deg: Sequence[float] = tuple(
                             range(-90, 91, 15)),
                         ) -> List[LatitudeCoverage]:
    """Probe constellation coverage on a latitude/longitude/time grid
    (:data:`LONGITUDES_DEG` x :data:`SAMPLE_TIMES_S` per latitude).

    Args:
        constellation: The satellites.
        min_elevation_deg: Minimum elevation angle for connectivity.
        latitudes_deg: Latitude bands to probe.

    Returns:
        One :class:`LatitudeCoverage` per latitude, in input order.
    """
    results: List[LatitudeCoverage] = []
    positions_by_time = {
        t: constellation.positions_ecef_m(t) for t in SAMPLE_TIMES_S
    }
    for latitude in latitudes_deg:
        covered = 0
        visible_total = 0
        samples = 0
        for longitude in LONGITUDES_DEG:
            station = GroundStation(
                gid=0, name="probe",
                position=GeodeticPosition(float(latitude),
                                          float(longitude), 0.0))
            for t in SAMPLE_TIMES_S:
                elevations = elevation_angles_deg(station,
                                                  positions_by_time[t])
                connectable = int((elevations >= min_elevation_deg).sum())
                covered += connectable > 0
                visible_total += connectable
                samples += 1
        results.append(LatitudeCoverage(
            latitude_deg=float(latitude),
            covered_fraction=covered / samples,
            mean_visible=visible_total / samples,
        ))
    return results
