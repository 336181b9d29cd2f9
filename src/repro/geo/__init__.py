"""Geodesy substrate: constants, coordinate frames, distances, latencies."""

from .constants import (
    EARTH_MEAN_RADIUS_M,
    EARTH_MU_M3_PER_S2,
    EARTH_ROTATION_RATE_RAD_PER_S,
    FIBER_REFRACTIVE_SLOWDOWN,
    LEO_MAX_ALTITUDE_M,
    SIDEREAL_DAY_S,
    SPEED_OF_LIGHT_M_PER_S,
    Ellipsoid,
    WGS72,
    WGS84,
)
from .coordinates import (
    GeodeticPosition,
    ecef_to_geodetic,
    geodetic_to_ecef,
)
from .distance import (
    central_angle_rad,
    geodesic_rtt_s,
    great_circle_distance_m,
    propagation_delay_s,
)

__all__ = [
    "EARTH_MEAN_RADIUS_M",
    "EARTH_MU_M3_PER_S2",
    "EARTH_ROTATION_RATE_RAD_PER_S",
    "FIBER_REFRACTIVE_SLOWDOWN",
    "LEO_MAX_ALTITUDE_M",
    "SIDEREAL_DAY_S",
    "SPEED_OF_LIGHT_M_PER_S",
    "Ellipsoid",
    "WGS72",
    "WGS84",
    "GeodeticPosition",
    "ecef_to_geodetic",
    "geodetic_to_ecef",
    "central_angle_rad",
    "geodesic_rtt_s",
    "great_circle_distance_m",
    "propagation_delay_s",
]
