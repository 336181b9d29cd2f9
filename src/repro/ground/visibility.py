"""GS-satellite visibility: elevation angles and coverage cones.

Paper §2.1 / Fig. 1: each satellite covers a cone defined by the minimum
angle of elevation ``l``.  A GS can communicate with a satellite only if it
sees it at elevation >= ``l``; smaller ``l`` admits satellites closer to the
horizon (more connectivity options, the root of Telesat's latency advantage
in §5.1).

The elevation of a satellite above a GS's local horizon is computed from the
up-component of the GS->satellite vector in the GS's topocentric frame.  All
routines here are vectorized over satellites, since visibility of an entire
constellation from every GS is recomputed at every forwarding-state time
step.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .stations import GroundStation

__all__ = [
    "elevation_angles_deg",
    "batched_visible_satellites",
    "azimuth_elevation_deg",
]


def _local_up_unit(station: GroundStation) -> np.ndarray:
    """Unit vector of the geodetic vertical (ellipsoid normal) at the GS."""
    lat = station.position.latitude_rad
    lon = station.position.longitude_rad
    return np.array([
        math.cos(lat) * math.cos(lon),
        math.cos(lat) * math.sin(lon),
        math.sin(lat),
    ])


def _station_frames(stations: List[GroundStation]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """(G, 3) ECEF positions and (G, 3) local-up unit vectors."""
    return (np.stack([station.ecef_m for station in stations]),
            np.stack([_local_up_unit(station) for station in stations]))


def elevation_angles_deg(station: GroundStation,
                         satellite_positions_ecef_m: np.ndarray) -> np.ndarray:
    """Elevation of each satellite above the GS's horizon, in degrees.

    Args:
        station: The observing ground station.
        satellite_positions_ecef_m: (N, 3) ECEF satellite positions.

    Returns:
        (N,) elevations in degrees; negative below the horizon, 90 directly
        overhead.
    """
    positions = np.atleast_2d(np.asarray(satellite_positions_ecef_m))
    delta = positions - station.ecef_m
    distances = np.linalg.norm(delta, axis=1)
    up = _local_up_unit(station)
    # sin(elevation) is the up-component of the unit pointing vector.
    sin_elev = (delta @ up) / np.maximum(distances, 1e-9)
    sin_elev = np.clip(sin_elev, -1.0, 1.0)
    return np.degrees(np.arcsin(sin_elev))


def batched_visible_satellites(stations: List[GroundStation],
                               satellite_positions_ecef_m: np.ndarray,
                               min_elevations_deg: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (station, satellite) pairs at or above each station's minimum
    elevation, with their slant ranges.

    Exactly the pairs (and lengths) a threshold on each station's
    :func:`elevation_angles_deg` selects, without taking the arcsine of
    the whole station x satellite table: a cheap bound
    ``up-component >= (sin(threshold) - 1e-6) * slant`` — from two
    (G, N) dot-product tables, no (G, N, 3) difference array — first
    rules out the pairs far below the threshold (all but a few per cent),
    and only the remaining candidates go through the exact expressions.
    The bound's own rounding (relative 1e-14 from the expanded norm) is
    eight orders below its 1e-6 margin.

    Args:
        stations: The observing ground stations (length G).
        satellite_positions_ecef_m: (N, 3) ECEF satellite positions.
        min_elevations_deg: (G,) per-station minimum elevation; above 90
            (a cut station carries inf) nothing is visible.

    Returns:
        ``(station_index, satellite_ids, distances_m)``: equal-length
        arrays, sorted by station index, then satellite id.
    """
    positions = np.atleast_2d(np.asarray(satellite_positions_ecef_m,
                                         dtype=np.float64))
    thresholds = np.asarray(min_elevations_deg, dtype=np.float64)
    reachable = thresholds <= 90.0
    if not stations or not reachable.any():
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0)
    station_ecef, ups = _station_frames(stations)
    # einsum, not @: BLAS would spread this over worker threads.  Over
    # the (3, N) transpose its inner loop runs along the satellites.
    by_axis = np.ascontiguousarray(positions.T)
    up = np.einsum("gk,kn->gn", ups, by_axis)
    up -= np.einsum("gk,gk->g", ups, station_ecef)[:, np.newaxis]
    slant = np.einsum("gk,kn->gn", station_ecef, by_axis)
    slant *= -2.0
    slant += np.einsum("nk,nk->n", positions, positions)
    slant += np.einsum("gk,gk->g", station_ecef,
                       station_ecef)[:, np.newaxis]
    np.sqrt(np.maximum(slant, 0.0, out=slant), out=slant)
    slant *= (np.sin(np.radians(np.where(reachable, thresholds, 90.0)))
              - 1e-6)[:, np.newaxis]
    candidate = up >= slant
    candidate &= reachable[:, np.newaxis]
    station_index, satellite_ids = np.nonzero(candidate)
    # The exact test, on the few candidates only.
    delta = positions[satellite_ids] - station_ecef[station_index]
    distances = np.sqrt(np.einsum("ck,ck->c", delta, delta))
    sin_elev = (np.einsum("ck,ck->c", delta, ups[station_index])
                / np.maximum(distances, 1e-9))
    np.clip(sin_elev, -1.0, 1.0, out=sin_elev)
    visible = (np.degrees(np.arcsin(sin_elev))
               >= thresholds[station_index])
    return (station_index[visible], satellite_ids[visible],
            distances[visible])


def azimuth_elevation_deg(station: GroundStation,
                          satellite_positions_ecef_m: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Azimuth and elevation of each satellite as seen from the GS.

    Azimuth follows the paper's Fig. 12 convention: 0 deg = due North,
    90 deg = due East, in [0, 360).

    Returns:
        ``(azimuths_deg, elevations_deg)``, each of shape (N,).
    """
    positions = np.atleast_2d(np.asarray(satellite_positions_ecef_m))
    delta = positions - station.ecef_m
    lat = station.position.latitude_rad
    lon = station.position.longitude_rad
    sin_lat, cos_lat = math.sin(lat), math.cos(lat)
    sin_lon, cos_lon = math.sin(lon), math.cos(lon)
    east = -sin_lon * delta[:, 0] + cos_lon * delta[:, 1]
    north = (-sin_lat * cos_lon * delta[:, 0]
             - sin_lat * sin_lon * delta[:, 1]
             + cos_lat * delta[:, 2])
    up = (cos_lat * cos_lon * delta[:, 0]
          + cos_lat * sin_lon * delta[:, 1]
          + sin_lat * delta[:, 2])
    horizontal = np.hypot(east, north)
    elevations = np.degrees(np.arctan2(up, horizontal))
    azimuths = np.degrees(np.arctan2(east, north)) % 360.0
    return azimuths, elevations
