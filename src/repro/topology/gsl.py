"""Ground-satellite link (GSL) connectivity policies.

Paper §3.1 offers two GS configurations: a GS may (a) connect to every
satellite above its minimum elevation angle, or (b) connect only to its
nearest visible satellite (the single-phased-array user-terminal model).
The policy decides which GSL edges exist in a topology snapshot; link
lengths are slant ranges.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from ..ground.stations import GroundStation
from ..ground.visibility import batched_visible_satellites

__all__ = ["GslPolicy", "GslEdges", "compute_gsl_edges"]


class GslPolicy(enum.Enum):
    """How a ground station selects satellites to link with."""

    #: Connect to every satellite above the minimum elevation (default for
    #: gateway-class GSes with multiple parabolic antennas).
    ALL_VISIBLE = "all_visible"

    #: Connect only to the nearest visible satellite (single phased-array
    #: user-terminal model).
    NEAREST_ONLY = "nearest_only"


@dataclass(frozen=True)
class GslEdges:
    """GSL candidates of one ground station at one instant.

    Attributes:
        gid: Ground station id.
        satellite_ids: (K,) ids of linkable satellites.
        lengths_m: (K,) slant ranges to those satellites, same order.
    """

    gid: int
    satellite_ids: np.ndarray
    lengths_m: np.ndarray

    def __post_init__(self) -> None:
        if len(self.satellite_ids) != len(self.lengths_m):
            raise ValueError("satellite_ids and lengths_m length mismatch")

    @property
    def is_connected(self) -> bool:
        """Whether the GS can reach any satellite at all right now.

        St. Petersburg's intermittent loss of Kuiper connectivity (paper
        Fig. 3(a)/Fig. 12) shows up as this being False.
        """
        return len(self.satellite_ids) > 0


def compute_gsl_edges(stations: Sequence[GroundStation],
                      satellite_positions_ecef_m: np.ndarray,
                      min_elevation_deg,
                      policy: GslPolicy = GslPolicy.ALL_VISIBLE,
                      excluded_satellites: Optional[Set[int]] = None,
                      ) -> Dict[int, GslEdges]:
    """GSL candidate edges for every ground station at one instant.

    Args:
        stations: The ground stations.
        satellite_positions_ecef_m: (N, 3) ECEF satellite positions.
        min_elevation_deg: Minimum elevation angle ``l`` — any real scalar
            (Python float, ``np.float32`` from a weather model, ...), or a
            mapping gid -> real for per-station values (e.g. a weather
            model's effective elevations).
        policy: Satellite selection policy.
        excluded_satellites: Satellites no GS may link to (failed ones).

    Returns:
        Mapping gid -> :class:`GslEdges`.  Stations that see no satellite
        get an empty edge set (they are disconnected at this instant).

    All stations' visible satellites and slant ranges come from one
    batched station x satellite computation
    (:func:`~repro.ground.visibility.batched_visible_satellites`) —
    this function sits on the per-snapshot hot path of both the
    forwarding controller and the sweep workers.
    """
    edges: Dict[int, GslEdges] = {}
    if not stations:
        return edges
    if isinstance(min_elevation_deg, numbers.Real):
        thresholds = np.full(len(stations), float(min_elevation_deg))
    else:
        thresholds = np.array([float(min_elevation_deg[station.gid])
                               for station in stations])
    station_index, satellite_ids, distances = batched_visible_satellites(
        stations, satellite_positions_ecef_m, thresholds)
    if excluded_satellites:
        excluded = np.fromiter(excluded_satellites, dtype=np.int64,
                               count=len(excluded_satellites))
        keep = ~np.isin(satellite_ids, excluded)
        station_index = station_index[keep]
        satellite_ids = satellite_ids[keep]
        distances = distances[keep]
    ends = np.cumsum(np.bincount(station_index,
                                 minlength=len(stations))).tolist()
    for station, low, high in zip(stations, [0] + ends, ends):
        visible = satellite_ids[low:high]
        lengths = distances[low:high]
        if policy is GslPolicy.NEAREST_ONLY and low < high:
            best = int(np.argmin(lengths))
            visible = visible[best:best + 1]
            lengths = lengths[best:best + 1]
        edges[station.gid] = GslEdges(
            gid=station.gid, satellite_ids=visible, lengths_m=lengths)
    return edges
