"""CZML export of satellite trajectories (paper §6, Fig. 11).

Hypatia renders its visualizations with Cesium; CZML is Cesium's native
JSON document format for time-dynamic scenes.  This module produces CZML
documents describing every satellite's trajectory (sampled positions in a
fixed frame) and the orbits' ground tracks, so the output can be dropped
into any Cesium viewer — while also being plain structured data that tests
and downstream tooling can inspect.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

import numpy as np

from ..constellations.builder import Constellation
from ..geo.coordinates import ecef_to_geodetic

__all__ = ["constellation_czml", "trajectory_samples",
           "constellation_summary", "write_czml"]


def trajectory_samples(constellation: Constellation, duration_s: float,
                       step_s: float) -> Dict[str, Any]:
    """Sampled ECEF positions of every satellite.

    Returns:
        Dict with ``times_s`` (T,) and ``positions_m`` (T, N, 3) arrays.
    """
    if duration_s <= 0.0 or step_s <= 0.0:
        raise ValueError("duration and step must be positive")
    times = np.arange(0.0, duration_s, step_s)
    positions = np.stack([
        constellation.positions_ecef_m(float(t)) for t in times
    ])
    return {"times_s": times, "positions_m": positions}


def constellation_czml(constellation: Constellation, duration_s: float,
                       step_s: float = 10.0) -> List[Dict[str, Any]]:
    """A CZML document (list of packets) for a constellation's motion.

    The first packet is the document header with the scene clock; each
    satellite contributes one packet whose ``position`` property carries
    time-tagged Cartesian samples (Cesium interpolates between them).

    Args:
        constellation: The satellites to render.
        duration_s: Scene duration.
        step_s: Position sampling interval.

    The document is named after the constellation.
    """
    samples = trajectory_samples(constellation, duration_s, step_s)
    times = samples["times_s"]
    positions = samples["positions_m"]
    document: List[Dict[str, Any]] = [{
        "id": "document",
        "name": constellation.name,
        "version": "1.0",
        "clock": {
            "interval": f"T0/T{duration_s:.0f}",
            "currentTime": "T0",
            "multiplier": 10,
        },
    }]
    for sat in constellation.satellites:
        cartesian: List[float] = []
        for t_index, time_s in enumerate(times):
            x, y, z = positions[t_index, sat.satellite_id]
            cartesian.extend([float(time_s), float(x), float(y), float(z)])
        document.append({
            "id": f"satellite-{sat.satellite_id}",
            "name": sat.name,
            "availability": f"T0/T{duration_s:.0f}",
            "point": {"pixelSize": 3, "color": {"rgba": [0, 0, 0, 255]}},
            "position": {
                "interpolationAlgorithm": "LAGRANGE",
                "interpolationDegree": 2,
                "epoch": "T0",
                "cartesian": cartesian,
            },
        })
    return document


def constellation_summary(constellation: Constellation) -> Dict[str, Any]:
    """Scalar facts about the constellation at t = 0 (Fig. 11 captions).

    Includes per-shell geometry and the latitude coverage extent: the
    highest latitude any satellite reaches is bounded by the shell's
    inclination, which is why low-inclination designs (Kuiper) skip the
    poles while Telesat's near-polar T1 covers them (paper §6).
    """
    positions = constellation.positions_ecef_m(0.0)
    latitudes = [
        ecef_to_geodetic(positions[i]).latitude_deg
        for i in range(len(positions))
    ]
    return {
        "name": constellation.name,
        "num_satellites": constellation.num_satellites,
        "shells": [
            {
                "name": shell.name,
                "orbits": shell.num_orbits,
                "satellites_per_orbit": shell.satellites_per_orbit,
                "altitude_km": shell.altitude_km,
                "inclination_deg": shell.inclination_deg,
            }
            for shell in constellation.shells
        ],
        "max_abs_latitude_deg": float(np.max(np.abs(latitudes))),
    }


def write_czml(document: Sequence[Dict[str, Any]], path: str) -> None:
    """Serialize a CZML document to a file."""
    with open(path, "w") as handle:
        json.dump(list(document), handle, indent=1)
