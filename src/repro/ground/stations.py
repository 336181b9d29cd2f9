"""Ground stations and ground-station sets.

Paper §3.1: Hypatia simulates static ground stations (GSes) with multiple
parabolic antennas.  A GS is fixed in the ECEF frame; its Cartesian position
is computed once and cached.

This module also builds the *relay grids* of Appendix A: a lattice of
candidate GS relays between two endpoints, used for "bent-pipe"
constellations that eschew inter-satellite links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..geo.coordinates import GeodeticPosition, geodetic_to_ecef
from .cities import top_cities

__all__ = ["GroundStation", "ground_stations_from_cities",
           "relay_grid_between"]


@dataclass(frozen=True)
class GroundStation:
    """A static ground station.

    Attributes:
        gid: Ground station id, unique within one experiment; assigned
            consecutively from 0.
        name: Human-readable name (usually a city name).
        position: Geodetic position.
        is_relay: True for Appendix-A bent-pipe relay stations, which may
            forward traffic but never originate or terminate it.
    """

    gid: int
    name: str
    position: GeodeticPosition
    is_relay: bool = False
    _ecef_cache: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        ecef = geodetic_to_ecef(self.position)
        object.__setattr__(self, "_ecef_cache", tuple(float(v) for v in ecef))

    @property
    def ecef_m(self) -> np.ndarray:
        """Cached ECEF position (meters)."""
        return np.array(self._ecef_cache)

    @property
    def latitude_deg(self) -> float:
        return self.position.latitude_deg

    @property
    def longitude_deg(self) -> float:
        return self.position.longitude_deg


def ground_stations_from_cities(count: int = 100) -> List[GroundStation]:
    """Ground stations at the ``count`` most populous cities.

    Returns:
        Ground stations with gids 0..count-1 in city-rank order.
    """
    return [
        GroundStation(gid=gid, name=city.name, position=city.position)
        for gid, city in enumerate(top_cities(count))
    ]


def relay_grid_between(a: GeodeticPosition, b: GeodeticPosition,
                       rows: int = 5, columns: int = 7) -> List[GroundStation]:
    """A lattice of candidate GS relays spanning the box between two points.

    Reproduces the Appendix-A setup (Fig. 16(b)): a grid of ground stations
    between the endpoints such that bent-pipe routing has multiple relays to
    choose from.  The grid covers the endpoints' bounding box, expanded by
    3° on every side, sampled ``rows x columns``.

    Note: the grid is laid out in latitude/longitude space, which is
    adequate for the continental scales of the Appendix-A experiment
    (Paris-Moscow); it does not attempt to handle paths crossing the
    antimeridian.

    Args:
        a: First endpoint.
        b: Second endpoint.
        rows: Grid rows (latitude direction).
        columns: Grid columns (longitude direction).

    Returns:
        Relay ground stations (``is_relay=True``) named ``relay-<r>-<c>``,
        gids 0, 1, ... in row-major order (callers renumber them after
        their endpoints).
    """
    if rows < 2 or columns < 2:
        raise ValueError("relay grid needs at least 2 rows and 2 columns")
    lat_low = min(a.latitude_deg, b.latitude_deg) - 3.0
    lat_high = max(a.latitude_deg, b.latitude_deg) + 3.0
    lon_low = min(a.longitude_deg, b.longitude_deg) - 3.0
    lon_high = max(a.longitude_deg, b.longitude_deg) + 3.0
    lat_low = max(-89.0, lat_low)
    lat_high = min(89.0, lat_high)
    lon_low = max(-180.0, lon_low)
    lon_high = min(180.0, lon_high)

    relays: List[GroundStation] = []
    for r in range(rows):
        lat = lat_low + (lat_high - lat_low) * r / (rows - 1)
        for c in range(columns):
            lon = lon_low + (lon_high - lon_low) * c / (columns - 1)
            relays.append(GroundStation(
                gid=len(relays),
                name=f"relay-{r}-{c}",
                position=GeodeticPosition(lat, lon, 0.0),
                is_relay=True,
            ))
    return relays
