"""The time-varying LEO network model and its instantaneous snapshots.

A :class:`LeoNetwork` bundles a constellation, a set of ground stations, a
named ISL interconnect, GSL connectivity parameters and a fault schedule.
Calling :meth:`LeoNetwork.snapshot` materializes the network at one
instant: all satellite positions, every ISL with its current length, and
every admissible GSL with its slant range.

Node numbering convention used by every downstream component (routing,
packet simulation, visualization):

* satellites occupy ids ``0 .. num_satellites-1`` (the constellation's
  global satellite ids);
* ground stations occupy ids ``num_satellites + gid``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

import numpy as np

from ..constellations.builder import Constellation
from ..geo.constants import SPEED_OF_LIGHT_M_PER_S
from ..ground.stations import GroundStation
from ..ground.visibility import station_frames
from ..obs import spans
from .gsl import GslEdges, GslPolicy, compute_gsl_edges
from .isl import ISL_BUILDERS, isl_lengths_m, validate_isl_pairs

if TYPE_CHECKING:
    import networkx as nx

    from ..faults.schedule import FaultSchedule

__all__ = ["LeoNetwork", "TopologySnapshot"]


@dataclass(frozen=True)
class TopologySnapshot:
    """The network frozen at one instant.

    Attributes:
        time_s: Snapshot time (seconds past the epoch).
        satellite_positions_m: (N, 3) ECEF satellite positions.
        isl_pairs: (L, 2) satellite-id pairs of the static ISL interconnect.
        isl_lengths_m: (L,) current ISL lengths.
        gsl_edges: gid -> admissible GSLs right now.
        num_satellites: Satellite count N (GS node ids start here).
        num_ground_stations: Ground station count G.
        relay_gids: gids of relay ground stations (may forward traffic).
    """

    time_s: float
    satellite_positions_m: np.ndarray
    isl_pairs: np.ndarray
    isl_lengths_m: np.ndarray
    gsl_edges: Dict[int, GslEdges]
    num_satellites: int
    num_ground_stations: int
    relay_gids: frozenset = frozenset()

    @property
    def num_nodes(self) -> int:
        """Total node count (satellites + ground stations)."""
        return self.num_satellites + self.num_ground_stations

    def gs_node_id(self, gid: int) -> int:
        """Graph node id of ground station ``gid``."""
        if not 0 <= gid < self.num_ground_stations:
            raise ValueError(f"gid {gid} out of range "
                             f"[0, {self.num_ground_stations})")
        return self.num_satellites + gid

    def gsl_edge_arrays(self, gids: Sequence[int]
                        ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Concatenated GSL edge arrays of many ground stations.

        The batched routing path appends all destinations' GSLs to the
        transit graph in one shot; this assembles the COO triplets for it.

        Returns:
            ``(gs_nodes, satellite_ids, lengths_m)`` — equal-length arrays
            with one entry per admissible GSL of the listed stations, in
            input order.  Disconnected stations contribute nothing.
        """
        if not len(gids):
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0))
        self.gs_node_id(min(gids))  # rejects a gid out of range
        self.gs_node_id(max(gids))
        edges = [self.gsl_edges[gid] for gid in gids]
        nodes = np.repeat(
            np.asarray(gids, dtype=np.int64) + self.num_satellites,
            [len(edge.satellite_ids) for edge in edges])
        sats = np.concatenate([edge.satellite_ids for edge in edges])
        lengths = np.concatenate([edge.lengths_m for edge in edges])
        return (nodes, sats.astype(np.int64, copy=False),
                lengths.astype(np.float64, copy=False))

    def to_networkx(self) -> nx.Graph:
        """The snapshot as a weighted undirected networkx graph.

        Edge attributes: ``distance_m`` and ``delay_s`` (propagation).
        Satellite nodes get ``kind="satellite"``; GS nodes ``kind="gs"``.
        This is the representation the paper's own analysis pipeline uses
        (paper §3.1: "we use a networkx module to generate the network
        graph").
        """
        # Imported here: only this export needs networkx, and importing
        # it costs every ``import repro`` ~0.1 s and ~12 MiB.
        import networkx as nx
        graph = nx.Graph()
        for sat_id in range(self.num_satellites):
            graph.add_node(sat_id, kind="satellite")
        for gid in range(self.num_ground_stations):
            graph.add_node(self.gs_node_id(gid), kind="gs", gid=gid,
                           is_relay=gid in self.relay_gids)
        for (a, b), length in zip(self.isl_pairs, self.isl_lengths_m):
            graph.add_edge(int(a), int(b), distance_m=float(length),
                           delay_s=float(length) / SPEED_OF_LIGHT_M_PER_S,
                           kind="isl")
        for gid, edges in self.gsl_edges.items():
            gs_node = self.gs_node_id(gid)
            for sat_id, length in zip(edges.satellite_ids, edges.lengths_m):
                graph.add_edge(gs_node, int(sat_id),
                               distance_m=float(length),
                               delay_s=float(length) / SPEED_OF_LIGHT_M_PER_S,
                               kind="gsl")
        return graph


class LeoNetwork:
    """A LEO constellation network whose topology evolves with time.

    Args:
        constellation: The satellites.
        ground_stations: The ground segment; gids must be 0..G-1 and match
            each station's position in the sequence.
        min_elevation_deg: Minimum GS elevation angle ``l``.
        isl_builder: The ISL interconnect, by its
            :data:`~repro.topology.isl.ISL_BUILDERS` name: ``"plus_grid"``
            (+Grid, the default), ``"single_ring"`` or ``"none"`` (bent
            pipe, Appendix A).
        gsl_policy: Satellite-selection policy for ground stations.
        faults: Optional :class:`repro.faults.FaultSchedule` (rain
            included, as attenuation events); snapshots at time *t*
            exclude nodes/edges faulted at *t*, so routing reroutes at the
            next forwarding tick and recovers when the event ends.  A
            satellite dead for the whole run is an outage from 0 to
            ``inf``.

    Raises:
        ValueError: On an unknown ``isl_builder`` name, gids out of order,
            an elevation outside [0, 90] or a fault targeting a node
            outside the network.

    Example:
        >>> from repro.constellations import Constellation, KUIPER_K1
        >>> from repro.ground import ground_stations_from_cities
        >>> network = LeoNetwork(Constellation([KUIPER_K1]),
        ...                      ground_stations_from_cities(count=10),
        ...                      min_elevation_deg=30.0)
        >>> snap = network.snapshot(0.0)
        >>> snap.num_nodes
        1166
    """

    def __init__(self, constellation: Constellation,
                 ground_stations: Sequence[GroundStation],
                 min_elevation_deg: float,
                 isl_builder: str = "plus_grid",
                 gsl_policy: GslPolicy = GslPolicy.ALL_VISIBLE,
                 faults: Optional["FaultSchedule"] = None) -> None:
        if isl_builder not in ISL_BUILDERS:
            raise ValueError(
                f"unknown ISL builder {isl_builder!r}; "
                f"known: {sorted(ISL_BUILDERS)}")
        for i, station in enumerate(ground_stations):
            if station.gid != i:
                raise ValueError(
                    f"ground station gids must be consecutive from 0; "
                    f"position {i} has gid {station.gid}")
        if not 0.0 <= min_elevation_deg <= 90.0:
            raise ValueError(
                f"min elevation must be in [0, 90], got {min_elevation_deg}")
        self.constellation = constellation
        self.ground_stations: List[GroundStation] = list(ground_stations)
        self.min_elevation_deg = min_elevation_deg
        self.gsl_policy = gsl_policy
        self.isl_builder = isl_builder
        self.set_faults(faults)
        self.isl_pairs = np.asarray(ISL_BUILDERS[isl_builder](constellation))
        validate_isl_pairs(self.isl_pairs, constellation.num_satellites)
        #: The stations' ECEF positions and local-up vectors, which every
        #: snapshot's visibility test reads.
        self._station_frames = station_frames(self.ground_stations)

    @property
    def fault_view(self) -> Optional["FaultSchedule"]:
        """The fault schedule snapshots evaluate, or None when it holds
        no event."""
        return self._fault_view

    def set_faults(self, faults: Optional["FaultSchedule"]) -> None:
        """Install the fault schedule (the constructor's path too),
        replacing any previous one on a live network.

        Drops the ISL-mask memo, so the next snapshot evaluates the new
        schedule; :class:`repro.service.LiveSimulationService` uses this
        to inject faults while the constellation flies.

        Raises:
            ValueError: An event targets a satellite, ground station or
                ISL endpoint outside this network; nothing is installed.
        """
        num_satellites = self.constellation.num_satellites
        for event in faults or ():
            if event.satellite is not None and not \
                    0 <= event.satellite < num_satellites:
                raise ValueError(
                    f"fault satellite {event.satellite} out of range")
            if event.gid is not None and not \
                    0 <= event.gid < len(self.ground_stations):
                raise ValueError(f"fault gid {event.gid} out of range")
            if event.isl is not None and not \
                    0 <= event.isl[0] < event.isl[1] < num_satellites:
                raise ValueError(
                    f"fault isl {event.isl} has an endpoint out of range")
        self.faults = faults
        self._fault_view = \
            faults if faults is not None and not faults.is_empty else None
        # Memo of the last dynamically-masked ISL array: fault windows are
        # long relative to the 100 ms snapshot grid, so consecutive
        # snapshots usually share the same (outages, cuts) key.
        self._isl_mask_key: Optional[Tuple[FrozenSet[int],
                                           FrozenSet[Tuple[int, int]]]] = None
        self._isl_mask_pairs: Optional[np.ndarray] = None

    @property
    def num_satellites(self) -> int:
        return self.constellation.num_satellites

    @property
    def num_ground_stations(self) -> int:
        return len(self.ground_stations)

    @property
    def num_nodes(self) -> int:
        return self.num_satellites + self.num_ground_stations

    def gs_node_id(self, gid: int) -> int:
        """Graph node id of ground station ``gid``."""
        if not 0 <= gid < self.num_ground_stations:
            raise ValueError(f"gid {gid} out of range")
        return self.num_satellites + gid

    def _masked_isl_pairs(self, outaged: FrozenSet[int],
                          cut: FrozenSet[Tuple[int, int]]) -> np.ndarray:
        """ISL pairs minus links touching an outaged satellite or cut
        outright, memoized on the (outages, cuts) key — fault windows are
        long relative to the snapshot grid, so the key rarely changes."""
        key = (outaged, cut)
        if key == self._isl_mask_key and self._isl_mask_pairs is not None:
            return self._isl_mask_pairs
        alive = np.array([
            a not in outaged and b not in outaged
            and (min(a, b), max(a, b)) not in cut
            for a, b in self.isl_pairs
        ]) if len(self.isl_pairs) else np.empty(0, dtype=bool)
        self._isl_mask_key = key
        self._isl_mask_pairs = self.isl_pairs[alive] \
            if len(self.isl_pairs) else self.isl_pairs
        return self._isl_mask_pairs

    @spans.timed("topology.snapshot")
    def snapshot(self, time_s: float) -> TopologySnapshot:
        """Materialize the topology at ``time_s``.

        Fault events active at ``time_s`` are excluded: outaged
        satellites lose their ISLs and GSLs, cut ISLs vanish, cut stations
        are disconnected, and attenuated (rained-on) stations see a higher
        effective minimum elevation.
        """
        positions = self.constellation.positions_ecef_m(time_s)
        isl_pairs = self.isl_pairs
        outaged: FrozenSet[int] = frozenset()
        elevation = self.min_elevation_deg
        faults = self._fault_view
        if faults is not None:
            outaged = faults.failed_satellites_at(time_s)
            cut_isls = faults.cut_isls_at(time_s)
            if outaged or cut_isls:
                isl_pairs = self._masked_isl_pairs(outaged, cut_isls)
            cut_gids = faults.cut_gids_at(time_s)
            elevation = {
                station.gid: float("inf") if station.gid in cut_gids
                else min(90.0, self.min_elevation_deg
                         + faults.elevation_penalty_deg(station.gid, time_s))
                for station in self.ground_stations}
        return TopologySnapshot(
            time_s=time_s,
            satellite_positions_m=positions,
            isl_pairs=isl_pairs,
            isl_lengths_m=isl_lengths_m(isl_pairs, positions),
            gsl_edges=compute_gsl_edges(
                self.ground_stations, positions,
                elevation, self.gsl_policy,
                excluded_satellites=outaged or None,
                frames=self._station_frames),
            num_satellites=self.num_satellites,
            num_ground_stations=self.num_ground_stations,
            relay_gids=frozenset(
                station.gid for station in self.ground_stations
                if station.is_relay),
        )
