"""Distance and latency primitives.

Two notions of distance matter for LEO networking:

* **Straight-line (chord) distance** between two points in space — this is
  what a radio or laser link traverses, so it determines link latency.
* **Great-circle distance** along the Earth's surface — together with the
  speed of light it gives the *geodesic RTT*, the unbeatable lower bound the
  paper compares constellation RTTs against (Fig. 6).
"""

from __future__ import annotations

import math

from .constants import EARTH_MEAN_RADIUS_M, SPEED_OF_LIGHT_M_PER_S
from .coordinates import GeodeticPosition

__all__ = [
    "great_circle_distance_m",
    "central_angle_rad",
    "propagation_delay_s",
    "geodesic_rtt_s",
]


def central_angle_rad(a: GeodeticPosition, b: GeodeticPosition) -> float:
    """Central angle between two surface points, via the haversine formula.

    The haversine form is numerically stable for both nearby and antipodal
    points, unlike the spherical law of cosines.
    """
    lat1, lon1 = a.latitude_rad, a.longitude_rad
    lat2, lon2 = b.latitude_rad, b.longitude_rad
    sin_dlat = math.sin((lat2 - lat1) / 2.0)
    sin_dlon = math.sin((lon2 - lon1) / 2.0)
    h = (sin_dlat * sin_dlat
         + math.cos(lat1) * math.cos(lat2) * sin_dlon * sin_dlon)
    h = min(1.0, max(0.0, h))
    return 2.0 * math.asin(math.sqrt(h))


def great_circle_distance_m(a: GeodeticPosition,
                            b: GeodeticPosition) -> float:
    """Great-circle (surface) distance between two geodetic points on the
    mean-radius sphere (m)."""
    return EARTH_MEAN_RADIUS_M * central_angle_rad(a, b)


def propagation_delay_s(distance_m: float) -> float:
    """One-way propagation delay over ``distance_m`` at the speed of
    light in vacuum."""
    if distance_m < 0.0:
        raise ValueError(f"distance must be non-negative, got {distance_m}")
    return distance_m / SPEED_OF_LIGHT_M_PER_S


def geodesic_rtt_s(a: GeodeticPosition, b: GeodeticPosition) -> float:
    """The geodesic RTT of paper Fig. 6.

    Time to travel from ``a`` to ``b`` and back along the great circle at
    the speed of light in vacuum.  No realizable network can beat this.
    """
    return 2.0 * propagation_delay_s(great_circle_distance_m(a, b))
