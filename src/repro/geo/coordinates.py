"""Coordinate frames and conversions.

Three frames are used throughout:

* **ECI** (Earth-centered inertial): the frame in which two-body orbital
  motion is simple.  X points to the vernal equinox, Z along the rotation
  axis.
* **ECEF** (Earth-centered, Earth-fixed): rotates with the Earth.  Ground
  stations are fixed in ECEF; satellite positions must be rotated into it
  before computing ground-satellite geometry.
* **Geodetic**: latitude / longitude / altitude against the WGS84
  ellipsoid.

The ECI -> ECEF rotation is a single rotation about Z by the Greenwich Mean
Sidereal Time (GMST) angle.  Since every experiment in the paper spans at
most a few hundred seconds, we use the linear GMST model (constant rotation
rate from a reference epoch), which is exact to well under a meter over such
horizons.  ``Constellation.positions_ecef_m`` applies it to all satellites
at once; this module holds the geodetic conversions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import WGS84

__all__ = [
    "GeodeticPosition",
    "geodetic_to_ecef",
    "ecef_to_geodetic",
]


@dataclass(frozen=True)
class GeodeticPosition:
    """A point given in geodetic coordinates.

    Attributes:
        latitude_deg: Geodetic latitude in degrees, north positive.
        longitude_deg: Longitude in degrees, east positive, in [-180, 180].
        altitude_m: Height above the ellipsoid in meters.
    """

    latitude_deg: float
    longitude_deg: float
    altitude_m: float = 0.0

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValueError(
                f"latitude must be in [-90, 90], got {self.latitude_deg}")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ValueError(
                f"longitude must be in [-180, 180], got {self.longitude_deg}")

    @property
    def latitude_rad(self) -> float:
        return math.radians(self.latitude_deg)

    @property
    def longitude_rad(self) -> float:
        return math.radians(self.longitude_deg)


def geodetic_to_ecef(position: GeodeticPosition) -> np.ndarray:
    """Convert geodetic coordinates to an ECEF Cartesian vector (meters)."""
    lat = position.latitude_rad
    lon = position.longitude_rad
    alt = position.altitude_m
    a = WGS84.semi_major_axis_m
    e2 = WGS84.eccentricity_squared
    sin_lat = math.sin(lat)
    cos_lat = math.cos(lat)
    # Prime-vertical radius of curvature.
    n = a / math.sqrt(1.0 - e2 * sin_lat * sin_lat)
    x = (n + alt) * cos_lat * math.cos(lon)
    y = (n + alt) * cos_lat * math.sin(lon)
    z = (n * (1.0 - e2) + alt) * sin_lat
    return np.array([x, y, z])


def ecef_to_geodetic(position_ecef_m: np.ndarray) -> GeodeticPosition:
    """Convert an ECEF Cartesian vector back to geodetic coordinates.

    Uses the classic iterative latitude refinement (at most 10 rounds,
    stopping once a round moves the latitude by under 1e-12 rad), which
    converges to sub-millimeter accuracy in a handful of iterations for
    any point above the Earth's core.
    """
    x, y, z = (float(v) for v in np.asarray(position_ecef_m))
    a = WGS84.semi_major_axis_m
    e2 = WGS84.eccentricity_squared
    lon = math.atan2(y, x)
    p = math.hypot(x, y)
    if p < 1e-9:
        # On the polar axis the longitude is arbitrary; latitude is +/-90.
        lat = math.copysign(math.pi / 2.0, z)
        n = a / math.sqrt(1.0 - e2 * math.sin(lat) ** 2)
        alt = abs(z) - n * (1.0 - e2)
        return GeodeticPosition(math.degrees(lat), 0.0, alt)

    lat = math.atan2(z, p * (1.0 - e2))
    for _ in range(10):
        sin_lat = math.sin(lat)
        n = a / math.sqrt(1.0 - e2 * sin_lat * sin_lat)
        new_lat = math.atan2(z + e2 * n * sin_lat, p)
        if abs(new_lat - lat) < 1e-12:
            lat = new_lat
            break
        lat = new_lat
    sin_lat = math.sin(lat)
    n = a / math.sqrt(1.0 - e2 * sin_lat * sin_lat)
    cos_lat = math.cos(lat)
    if abs(cos_lat) > 1e-9:
        alt = p / cos_lat - n
    else:
        alt = abs(z) - n * (1.0 - e2)
    lon_deg = math.degrees(lon)
    if lon_deg == -180.0:
        lon_deg = 180.0
    return GeodeticPosition(math.degrees(lat), lon_deg, alt)
