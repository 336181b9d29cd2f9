"""Orbital mechanics substrate: Keplerian elements, shells, TLE export.

The independent TLE parser and general two-body propagator that validate
the export live with the tests (``tests/_orbit_oracle.py``).
"""

from .kepler import KeplerianElements, mean_motion_rad_per_s, wrap_angle
from .shell import SatelliteIndex, Shell
from .tle import TLE, generate_tle, tle_checksum

__all__ = [
    "KeplerianElements",
    "mean_motion_rad_per_s",
    "wrap_angle",
    "SatelliteIndex",
    "Shell",
    "TLE",
    "generate_tle",
    "tle_checksum",
]
