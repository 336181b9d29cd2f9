"""Loop-based constellation and ISL builders: the reference the array
builders are held bit-equal to.

``Constellation`` fills its element arrays and the ISL builders wire
their links with array operations; these are the per-satellite loops
they replaced, kept verbatim as the oracle (``tests/test_constellations.py``
compares them on every Table 1 shell and on random Walker shells).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.constellations.builder import Constellation, Satellite
from repro.orbits.shell import SatelliteIndex


def loop_satellites(constellation: Constellation) -> List[Satellite]:
    """Every satellite of the constellation's shells, one object at a
    time, in global-id order."""
    satellites: List[Satellite] = []
    for shell in constellation.shells:
        for index in shell.iter_indices():
            satellites.append(Satellite(
                satellite_id=len(satellites),
                shell_name=shell.name,
                index=index,
                elements=shell.elements_for(index),
            ))
    return satellites


def loop_element_arrays(constellation: Constellation
                        ) -> Tuple[np.ndarray, ...]:
    """``(radius, raan, inclination, argument of latitude, mean motion)``
    read off :func:`loop_satellites`' elements."""
    satellites = loop_satellites(constellation)
    n = len(satellites)
    radius_m = np.empty(n)
    raan_rad = np.empty(n)
    inclination_rad = np.empty(n)
    anomaly_rad = np.empty(n)
    mean_motion = np.empty(n)
    for i, sat in enumerate(satellites):
        el = sat.elements
        radius_m[i] = el.semi_major_axis_m
        raan_rad[i] = el.raan_rad
        inclination_rad[i] = el.inclination_rad
        # For circular orbits the argument of latitude at the epoch is
        # the mean anomaly plus the argument of periapsis.
        anomaly_rad[i] = el.mean_anomaly_rad + el.arg_periapsis_rad
        mean_motion[i] = el.mean_motion_rad_per_s
    return radius_m, raan_rad, inclination_rad, anomaly_rad, mean_motion


def loop_plus_grid_isls(constellation: Constellation) -> np.ndarray:
    """The +Grid interconnect, one satellite at a time."""
    pairs: List[Tuple[int, int]] = []
    for shell in constellation.shells:
        for index in shell.iter_indices():
            this_id = constellation.satellite_id(shell.name, index)
            # Forward links only; the wrap-around partner emits the reverse.
            next_in_orbit = SatelliteIndex(
                index.orbit,
                (index.position_in_orbit + 1) % shell.satellites_per_orbit)
            next_orbit = SatelliteIndex(
                (index.orbit + 1) % shell.num_orbits, index.position_in_orbit)
            for neighbor in (next_in_orbit, next_orbit):
                other_id = constellation.satellite_id(shell.name, neighbor)
                if other_id != this_id:
                    pairs.append((min(this_id, other_id),
                                  max(this_id, other_id)))
    unique = sorted(set(pairs))
    if not unique:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(unique, dtype=np.int64)


def loop_single_ring_isls(constellation: Constellation) -> np.ndarray:
    """Intra-orbit-only ISLs, one satellite at a time."""
    pairs: List[Tuple[int, int]] = []
    for shell in constellation.shells:
        if shell.satellites_per_orbit < 2:
            continue
        for index in shell.iter_indices():
            this_id = constellation.satellite_id(shell.name, index)
            next_in_orbit = SatelliteIndex(
                index.orbit,
                (index.position_in_orbit + 1) % shell.satellites_per_orbit)
            other_id = constellation.satellite_id(shell.name, next_in_orbit)
            if other_id != this_id:
                pairs.append((min(this_id, other_id), max(this_id, other_id)))
    unique = sorted(set(pairs))
    if not unique:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(unique, dtype=np.int64)


def loop_validate_isl_pairs(pairs: np.ndarray, num_satellites: int) -> None:
    """The pair checks with a set of canonical tuples for duplicates."""
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        return
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"ISL pairs must be (L, 2), got {pairs.shape}")
    if pairs.min() < 0 or pairs.max() >= num_satellites:
        raise ValueError("ISL pair references a satellite id out of range")
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise ValueError("ISL pair links a satellite to itself")
    canonical = {tuple(sorted(map(int, row))) for row in pairs}
    if len(canonical) != len(pairs):
        raise ValueError("duplicate ISL pairs")
