"""Ground segment: cities, ground stations, GS-satellite visibility."""

from .cities import CITY_RECORDS, City, top_cities
from .stations import (
    GroundStation,
    ground_stations_from_cities,
    relay_grid_between,
)
from .visibility import azimuth_elevation_deg, elevation_angles_deg

__all__ = [
    "CITY_RECORDS",
    "City",
    "top_cities",
    "GroundStation",
    "ground_stations_from_cities",
    "relay_grid_between",
    "azimuth_elevation_deg",
    "elevation_angles_deg",
]
