"""Fast node-position and propagation-delay service for the simulator.

Paper §3.2: while forwarding state is recomputed at discrete time steps,
*latencies are correctly calculated based on satellite motion* continuously.
Every packet transmission therefore asks "how far apart are these two nodes
right now?".

Computing a full constellation position array per packet would dominate the
simulation, so this service:

* evaluates single-satellite positions in O(1) from the constellation's
  cached circular-orbit arrays, and
* evaluates them on a configurable time quantum (default 1 ms — over
  1 ms a satellite moves ~7.6 m, i.e. a delay error < 0.03 microseconds).
  No memo sits behind the grid: packet runs rarely repeat a (satellite,
  bucket), so one costs more CPU and memory than it saves and would be
  pickled into every packet checkpoint.  A caller whose lookups share one
  timestamp (an AIMD step) keeps its own step-local dict.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..geo.constants import SPEED_OF_LIGHT_M_PER_S
from ..topology.network import LeoNetwork

__all__ = ["PositionService"]


class PositionService:
    """Per-node positions and pairwise propagation delays over time.

    Args:
        network: The network whose node-numbering is used.
        quantum_s: Positions are evaluated on this time grid; lookups in
            between use the grid point at or before them.  Zero disables
            quantization.
    """

    def __init__(self, network: LeoNetwork, quantum_s: float = 0.001) -> None:
        if quantum_s < 0.0:
            raise ValueError(f"quantum must be >= 0, got {quantum_s}")
        self._network = network
        self._quantum_s = quantum_s
        constellation = network.constellation
        if not constellation._all_circular:
            raise NotImplementedError(
                "PositionService's O(1) path requires circular orbits; all "
                "paper constellations are circular")
        self._num_sats = constellation.num_satellites
        self._epoch_offset_s = constellation.epoch_offset_s
        # Cached circular-orbit arrays (shared with the constellation).
        self._radius = constellation._radius_m
        self._raan = constellation._raan_rad
        self._incl = constellation._inclination_rad
        self._anom = constellation._anomaly_rad
        self._motion = constellation._mean_motion
        from ..geo.constants import EARTH_ROTATION_RATE_RAD_PER_S
        self._earth_rate = EARTH_ROTATION_RATE_RAD_PER_S
        self._gs_positions = {
            network.gs_node_id(gs.gid): tuple(gs.ecef_m)
            for gs in network.ground_stations
        }
        #: Number of orbit propagations (one per satellite lookup).
        self.position_computes = 0

    def position_m(self, node_id: int, time_s: float
                   ) -> Tuple[float, float, float]:
        """ECEF position of any node (satellite or GS) at ``time_s``."""
        if node_id >= self._num_sats:
            return self._gs_positions[node_id]
        if self._quantum_s > 0.0:
            time_s = int(time_s / self._quantum_s) * self._quantum_s
        return self._satellite_position(node_id, time_s)

    def _satellite_position(self, sat_id: int, time_s: float
                            ) -> Tuple[float, float, float]:
        """Scalar circular-orbit propagation + Earth rotation."""
        self.position_computes += 1
        time_s = time_s + self._epoch_offset_s
        u = self._anom[sat_id] + self._motion[sat_id] * time_s
        r = self._radius[sat_id]
        cos_u, sin_u = math.cos(u), math.sin(u)
        cos_o, sin_o = math.cos(self._raan[sat_id]), math.sin(self._raan[sat_id])
        cos_i, sin_i = math.cos(self._incl[sat_id]), math.sin(self._incl[sat_id])
        x_eci = r * (cos_u * cos_o - sin_u * cos_i * sin_o)
        y_eci = r * (cos_u * sin_o + sin_u * cos_i * cos_o)
        z = r * sin_u * sin_i
        theta = self._earth_rate * time_s
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        return (x_eci * cos_t + y_eci * sin_t,
                -x_eci * sin_t + y_eci * cos_t,
                z)

    def distance_m(self, node_a: int, node_b: int, time_s: float) -> float:
        """Straight-line distance between two nodes at ``time_s``."""
        ax, ay, az = self.position_m(node_a, time_s)
        bx, by, bz = self.position_m(node_b, time_s)
        return math.sqrt((ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)

    def delay_s(self, node_a: int, node_b: int, time_s: float) -> float:
        """One-way propagation delay between two nodes at ``time_s``."""
        return self.distance_m(node_a, node_b, time_s) / SPEED_OF_LIGHT_M_PER_S
