"""Keplerian orbital elements.

The constellations in the paper's Table 1 are all circular-orbit shells, but
the element container holds any bound orbit, so a generated TLE can be
checked by the general two-body propagator kept as a test oracle
(``tests/_orbit_oracle.py``).

Conventions:

* Angles are radians internally; constructors accept degrees via the
  ``*_deg`` keyword helpers.
* The epoch is the simulation's t = 0; elements are osculating at the epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geo.constants import EARTH_MU_M3_PER_S2, WGS72

__all__ = ["KeplerianElements", "mean_motion_rad_per_s", "wrap_angle"]

TWO_PI = 2.0 * math.pi


def wrap_angle(angle_rad: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    wrapped = math.fmod(angle_rad, TWO_PI)
    if wrapped < 0.0:
        wrapped += TWO_PI
    # Tiny negative inputs round to exactly 2*pi above; keep the
    # half-open interval.
    if wrapped >= TWO_PI:
        wrapped = 0.0
    return wrapped


@dataclass(frozen=True)
class KeplerianElements:
    """Classical orbital elements of an Earth-orbiting object.

    Attributes:
        semi_major_axis_m: Semi-major axis ``a`` (meters, measured from the
            Earth's center).  For the circular shells of Table 1 this is
            Earth radius + altitude.
        eccentricity: Orbit eccentricity ``e`` in [0, 1).
        inclination_rad: Inclination ``i`` of the orbital plane against the
            equatorial plane, in [0, pi].
        raan_rad: Right ascension of the ascending node (capital Omega).
        arg_periapsis_rad: Argument of periapsis (small omega).  Undefined
            for circular orbits; by convention zero there.
        mean_anomaly_rad: Mean anomaly ``M`` at the epoch.
        mu_m3_per_s2: Gravitational parameter; WGS72 Earth by default.
    """

    semi_major_axis_m: float
    eccentricity: float = 0.0
    inclination_rad: float = 0.0
    raan_rad: float = 0.0
    arg_periapsis_rad: float = 0.0
    mean_anomaly_rad: float = 0.0
    mu_m3_per_s2: float = EARTH_MU_M3_PER_S2

    def __post_init__(self) -> None:
        if self.semi_major_axis_m <= 0.0:
            raise ValueError(
                f"semi-major axis must be positive, got {self.semi_major_axis_m}")
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError(
                f"eccentricity must be in [0, 1), got {self.eccentricity}")
        if not 0.0 <= self.inclination_rad <= math.pi:
            raise ValueError(
                f"inclination must be in [0, pi], got {self.inclination_rad}")

    @classmethod
    def circular(cls, altitude_m: float, inclination_deg: float,
                 raan_deg: float = 0.0, mean_anomaly_deg: float = 0.0,
                 earth_radius_m: float = WGS72.semi_major_axis_m,
                 ) -> "KeplerianElements":
        """Build elements for a circular orbit from filing-style parameters.

        Args:
            altitude_m: Height above the (equatorial) Earth surface — the
                ``h`` column of paper Table 1.
            inclination_deg: Inclination in degrees — the ``i`` column.
            raan_deg: Ascending-node longitude in degrees; orbits of a shell
                spread this uniformly over the Equator.
            mean_anomaly_deg: Position of the satellite along the orbit.
            earth_radius_m: Equatorial radius to add the altitude to.
        """
        return cls(
            semi_major_axis_m=earth_radius_m + altitude_m,
            eccentricity=0.0,
            inclination_rad=math.radians(inclination_deg),
            raan_rad=wrap_angle(math.radians(raan_deg)),
            arg_periapsis_rad=0.0,
            mean_anomaly_rad=wrap_angle(math.radians(mean_anomaly_deg)),
        )

    @property
    def mean_motion_rad_per_s(self) -> float:
        """Mean motion ``n = sqrt(mu / a^3)`` (rad/s)."""
        return mean_motion_rad_per_s(self.semi_major_axis_m, self.mu_m3_per_s2)

    @property
    def mean_motion_rev_per_day(self) -> float:
        """Mean motion in revolutions per day — the TLE representation."""
        return self.mean_motion_rad_per_s * 86_400.0 / TWO_PI


def mean_motion_rad_per_s(semi_major_axis_m: float,
                          mu_m3_per_s2: float = EARTH_MU_M3_PER_S2) -> float:
    """Mean motion ``n = sqrt(mu / a^3)`` (rad/s)."""
    if semi_major_axis_m <= 0.0:
        raise ValueError("semi-major axis must be positive")
    return math.sqrt(mu_m3_per_s2 / semi_major_axis_m ** 3)


