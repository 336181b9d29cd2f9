"""Traffic matrices: who sends how much to whom.

The paper's constellation-wide experiments (§3.4, §5.4) hard-code one
workload — a fixed-point-free random permutation of the 100 cities, every
pair greedy.  This module generalizes that to a first-class
:class:`TrafficMatrix`: an (N, N) demand matrix in bits/second between
ground stations, with two builders:

* :meth:`TrafficMatrix.gravity` — population-weighted demand,
  ``demand[i, j] ∝ pop_i · pop_j / dist_ij^exponent``, normalized to a
  target aggregate offered load.  This is the "heavy traffic from
  millions of users" model the ROADMAP's north star calls for: big city
  pairs dominate, nearby megacities exchange more than antipodal ones.
* :meth:`TrafficMatrix.permutation` — the paper's §5.4 matrix as a
  special case, delegating to
  :func:`repro.core.workloads.random_permutation_pairs` so the pair set
  is *identical* to every existing benchmark's.

A matrix is plain data: picklable, JSON round-trippable, and the input of
:class:`repro.traffic.arrivals.FlowArrivalProcess` (stochastic flow
churn).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Tuple

import numpy as np

from ..faults.schedule import required
from ..geo.distance import great_circle_distance_m
from ..ground.cities import top_cities

__all__ = ["TrafficMatrix"]

#: Gravity-model distance floor: city pairs closer than this (great
#: circle) are treated as this far apart, so co-located stations cannot
#: absorb the whole normalized demand.
MIN_GRAVITY_DISTANCE_M = 100_000.0


class TrafficMatrix:
    """An (N, N) offered-load matrix between ground stations, in bit/s.

    ``demand_bps[i, j]`` is the aggregate load station ``i`` offers
    toward station ``j``; the diagonal is zero.  Instances are
    immutable-by-convention (the array is set non-writeable).

    Args:
        demand_bps: Square non-negative array, zero diagonal.
        kind: Provenance label (``"gravity"``, ``"permutation"``, ...),
            carried through serialization for report labeling.
    """

    def __init__(self, demand_bps: np.ndarray, kind: str = "custom") -> None:
        demand = np.array(demand_bps, dtype=np.float64)
        if demand.ndim != 2 or demand.shape[0] != demand.shape[1]:
            raise ValueError(
                f"demand matrix must be square, got shape {demand.shape}")
        if not np.isfinite(demand).all():
            raise ValueError("demand matrix entries must be finite")
        if (demand < 0.0).any():
            raise ValueError("demand matrix entries must be non-negative")
        if demand.shape[0] and np.diagonal(demand).any():
            raise ValueError("self-traffic (diagonal) must be zero")
        demand.setflags(write=False)
        self.demand_bps = demand
        self.kind = str(kind)

    # -- basic queries ---------------------------------------------------

    @property
    def num_stations(self) -> int:
        return self.demand_bps.shape[0]

    @property
    def total_offered_bps(self) -> float:
        """Aggregate offered load over all pairs (bit/s)."""
        return float(self.demand_bps.sum())

    def rate_bps(self, src_gid: int, dst_gid: int) -> float:
        """Offered load of one directed pair."""
        return float(self.demand_bps[src_gid, dst_gid])

    def pairs(self) -> List[Tuple[int, int]]:
        """(src, dst) pairs with positive demand, in row-major order — a
        deterministic ordering shared by every consumer."""
        src_idx, dst_idx = np.nonzero(self.demand_bps > 0.0)
        return [(int(s), int(d)) for s, d in zip(src_idx, dst_idx)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficMatrix):
            return NotImplemented
        return (self.kind == other.kind
                and self.demand_bps.shape == other.demand_bps.shape
                and bool((self.demand_bps == other.demand_bps).all()))

    def __repr__(self) -> str:
        return (f"TrafficMatrix({self.num_stations} stations, "
                f"kind={self.kind!r}, "
                f"total={self.total_offered_bps:.3g} bit/s)")

    # -- transforms ------------------------------------------------------

    def normalized_to(self, total_offered_bps: float) -> "TrafficMatrix":
        """The same traffic *pattern* rescaled to a new aggregate load."""
        if total_offered_bps <= 0.0:
            raise ValueError("target aggregate load must be positive")
        current = self.total_offered_bps
        if current <= 0.0:
            raise ValueError("cannot rescale an all-zero matrix")
        return TrafficMatrix(self.demand_bps * (total_offered_bps / current),
                             kind=self.kind)

    # -- builders --------------------------------------------------------

    @classmethod
    def gravity(cls, count: int = 100,
                total_offered_bps: float = 1e9,
                distance_exponent: float = 1.0) -> "TrafficMatrix":
        """Population-gravity demand over city ground stations.

        ``demand[i, j] ∝ pop_i · pop_j / max(dist_ij, floor)^exponent``
        (the floor is :data:`MIN_GRAVITY_DISTANCE_M`),
        normalized so the matrix sums to ``total_offered_bps``, over the
        ``count`` most populous cities (the paper's ground segment).
        Station gids follow city rank order, matching
        :func:`repro.ground.stations.ground_stations_from_cities`.

        Args:
            count: Top-N cities.
            total_offered_bps: Aggregate offered load to normalize to.
            distance_exponent: ``f(d) = d^exponent`` deterrence; 0 turns
                distance off (pure population product), 2 is the classic
                Newtonian form.
        """
        cities = top_cities(count)
        if len(cities) < 2:
            raise ValueError("gravity model needs at least two cities")
        if total_offered_bps <= 0.0:
            raise ValueError("aggregate offered load must be positive")
        if not 0.0 <= distance_exponent < math.inf:
            raise ValueError(f"distance exponent must be finite and "
                             f"non-negative, got {distance_exponent}")
        n = len(cities)
        populations = np.array([float(c.population) for c in cities])
        if (populations <= 0.0).any():
            raise ValueError("city populations must be positive")
        demand = np.outer(populations, populations)
        if distance_exponent > 0.0:
            deterrence = np.empty((n, n))
            for i in range(n):
                deterrence[i, i] = 1.0  # diagonal is zeroed below anyway
                for j in range(i + 1, n):
                    distance = max(great_circle_distance_m(
                        cities[i].position, cities[j].position),
                        MIN_GRAVITY_DISTANCE_M)
                    deterrence[i, j] = deterrence[j, i] = (
                        distance ** distance_exponent)
            demand /= deterrence
        np.fill_diagonal(demand, 0.0)
        demand *= total_offered_bps / demand.sum()
        return cls(demand, kind="gravity")

    @classmethod
    def permutation(cls, num_stations: int = 100,
                    rate_bps: float = 10_000_000.0,
                    seed: int = 42) -> "TrafficMatrix":
        """The paper's §5.4 matrix: a fixed-point-free random permutation.

        Delegates to :func:`repro.core.workloads.random_permutation_pairs`
        with the repository's canonical seed, so
        ``matrix.pairs() == random_permutation_pairs(num_stations)`` holds
        exactly and the Fig. 10/14/15 workload is reproduced bit-for-bit.

        Args:
            num_stations: Ground stations (gids 0..N-1).
            rate_bps: Offered load per pair (each flow is typically run
                elastic; the rate only matters for arrival processes).
            seed: Permutation seed (default: the canonical matrix).
        """
        from ..core.workloads import random_permutation_pairs
        if rate_bps <= 0.0:
            raise ValueError("per-pair rate must be positive")
        demand = np.zeros((num_stations, num_stations))
        for src, dst in random_permutation_pairs(num_stations, seed=seed):
            demand[src, dst] = rate_bps
        return cls(demand, kind="permutation")

    # -- (de)serialization ----------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "num_stations": self.num_stations,
            "demand_bps": [[float(v) for v in row]
                           for row in self.demand_bps],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TrafficMatrix":
        demand = required(payload, "demand_bps", "a traffic matrix")
        try:
            demand = np.asarray(demand, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"demand_bps must be a matrix of numbers, "
                             f"got {demand!r}") from None
        return cls(demand, kind=payload.get("kind", "custom"))

    def to_json(self, path: str) -> None:
        """Write the matrix as JSON (floats via ``repr``, so a round trip
        is bit-identical)."""
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.as_dict(), stream)
            stream.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "TrafficMatrix":
        """Load a matrix written by :meth:`to_json`."""
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_dict(json.load(stream))
