"""Physical and geodetic constants used throughout the framework.

All distances are in meters, all times in seconds, and all angles in radians
unless a name explicitly says otherwise (``*_deg``, ``*_km``).

The constellations reproduced here (paper Table 1) are specified against the
WGS72 world geodetic system, the datum used by the TLE format and by NORAD's
SGP4 propagator.  We therefore carry both WGS72 and WGS84 parameter sets;
WGS72 is the default for orbital work, while the geodetic helpers accept an
explicit ellipsoid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Speed of light in vacuum (m/s).  Used to convert path lengths to latencies
#: and to compute the "geodesic RTT" lower bound of paper Fig. 6.
SPEED_OF_LIGHT_M_PER_S = 299_792_458.0

#: Standard gravitational parameter of the Earth, mu = G * M_earth (m^3/s^2),
#: WGS72 value (the one baked into the TLE/SGP4 ecosystem).
EARTH_MU_M3_PER_S2 = 3.986_008e14

#: Mean Earth radius used for coverage cones and great-circle distances (m).
EARTH_MEAN_RADIUS_M = 6_371_000.0

#: Sidereal day: time for one full Earth rotation relative to the stars (s).
SIDEREAL_DAY_S = 86_164.0905

#: Earth's rotation rate (rad/s), derived from the sidereal day.
EARTH_ROTATION_RATE_RAD_PER_S = 2.0 * math.pi / SIDEREAL_DAY_S

#: Conventional LEO ceiling (paper §1): low Earth orbit ends at 2000 km.
LEO_MAX_ALTITUDE_M = 2_000_000.0

#: Speed of light in optical fiber is roughly 2c/3 (paper §5.1, citing [9]).
FIBER_REFRACTIVE_SLOWDOWN = 3.0 / 2.0


@dataclass(frozen=True)
class Ellipsoid:
    """A reference ellipsoid for geodetic <-> Cartesian conversions.

    Attributes:
        name: Human-readable datum name.
        semi_major_axis_m: Equatorial radius ``a`` in meters.
        inverse_flattening: ``1/f``; flattening ``f = (a - b) / a``.
    """

    name: str
    semi_major_axis_m: float
    inverse_flattening: float

    @property
    def flattening(self) -> float:
        """Flattening ``f`` of the ellipsoid."""
        return 1.0 / self.inverse_flattening

    @property
    def eccentricity_squared(self) -> float:
        """First eccentricity squared, ``e^2 = f * (2 - f)``."""
        f = self.flattening
        return f * (2.0 - f)


#: WGS72: datum of the TLE format and of the constellation filings we model.
WGS72 = Ellipsoid(name="WGS72", semi_major_axis_m=6_378_135.0,
                  inverse_flattening=298.26)

#: WGS84: datum of GPS coordinates; used for the city dataset.
WGS84 = Ellipsoid(name="WGS84", semi_major_axis_m=6_378_137.0,
                  inverse_flattening=298.257_223_563)
