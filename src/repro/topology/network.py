"""The time-varying LEO network model and its instantaneous snapshots.

A :class:`LeoNetwork` bundles a constellation, a set of ground stations, an
ISL interconnect, and GSL connectivity parameters.  Calling
:meth:`LeoNetwork.snapshot` materializes the network at one instant: all
satellite positions, every ISL with its current length, and every
admissible GSL with its slant range.

Node numbering convention used by every downstream component (routing,
packet simulation, visualization):

* satellites occupy ids ``0 .. num_satellites-1`` (the constellation's
  global satellite ids);
* ground stations occupy ids ``num_satellites + gid``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

import numpy as np

from ..constellations.builder import Constellation
from ..geo.constants import SPEED_OF_LIGHT_M_PER_S
from ..ground.stations import GroundStation
from .gsl import GslEdges, GslPolicy, compute_gsl_edges
from .isl import isl_lengths_m, plus_grid_isls, validate_isl_pairs

if TYPE_CHECKING:
    import networkx as nx

    from ..faults.schedule import FaultSchedule
    from ..ground.weather import WeatherModel

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
        nodes_list: List[np.ndarray] = []
        sats_list: List[np.ndarray] = []
        lengths_list: List[np.ndarray] = []
        for gid in gids:
            edges = self.gsl_edges[gid]
            if not edges.is_connected:
                continue
            node = self.gs_node_id(gid)
            nodes_list.append(np.full(len(edges.satellite_ids), node,
                                      dtype=np.int64))
            sats_list.append(edges.satellite_ids.astype(np.int64))
            lengths_list.append(edges.lengths_m.astype(np.float64))
        if not nodes_list:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0))
        return (np.concatenate(nodes_list),
                np.concatenate(sats_list),
                np.concatenate(lengths_list))

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
        isl_builder: Callable building the static ISL pair array from the
            constellation; defaults to +Grid.  Pass
            :func:`repro.topology.isl.no_isls` for bent-pipe experiments.
        gsl_policy: Satellite-selection policy for ground stations.
        weather: Optional rain model; internally folded into the fault
            schedule (one code path evaluates both).
        failed_satellites: Satellites dead for the whole run (their ISLs
            are dropped once, at construction).
        faults: Optional :class:`repro.faults.FaultSchedule`; snapshots
            at time *t* exclude nodes/edges faulted at *t*, so routing
            reroutes at the next forwarding tick and recovers when the
            event ends.

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
                 isl_builder: Callable[[Constellation], np.ndarray]
                 = plus_grid_isls,
                 gsl_policy: GslPolicy = GslPolicy.ALL_VISIBLE,
                 weather: Optional["WeatherModel"] = None,
                 failed_satellites: Sequence[int] = (),
                 faults: Optional["FaultSchedule"] = None) -> None:
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
        self.weather = weather
        #: The builder callable, kept so :class:`repro.sweep.NetworkSpec`
        #: can reverse-map it to a picklable name for worker rebuilds.
        self.isl_builder = isl_builder
        self.failed_satellites = frozenset(int(s) for s in failed_satellites)
        for sat in self.failed_satellites:
            if not 0 <= sat < constellation.num_satellites:
                raise ValueError(f"failed satellite {sat} out of range")
        self.set_faults(faults)
        self.isl_pairs = np.asarray(isl_builder(constellation))
        validate_isl_pairs(self.isl_pairs, constellation.num_satellites)
        if self.failed_satellites and len(self.isl_pairs):
            alive = np.array([
                a not in self.failed_satellites
                and b not in self.failed_satellites
                for a, b in self.isl_pairs
            ])
            self.isl_pairs = self.isl_pairs[alive]

    @property
    def fault_view(self) -> Optional["FaultSchedule"]:
        """The combined fault schedule snapshots evaluate (explicit
        faults plus weather-derived attenuation), or None when no fault
        can ever be active."""
        return self._fault_view

    def set_faults(self, faults: Optional["FaultSchedule"]) -> None:
        """Install the explicit fault schedule (the constructor's path
        too), replacing any previous one on a live network.

        Rebuilds the combined fault view (explicit + weather) and drops
        the ISL-mask memo, so the next snapshot evaluates the new
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
        # Rain is one producer of GSL attenuation faults: fold a weather
        # model into the (possibly empty) explicit schedule so snapshot()
        # evaluates both through a single code path.
        combined = faults
        if self.weather is not None and self.weather.num_events:
            from ..faults.schedule import FaultSchedule
            rain = FaultSchedule.from_weather(self.weather)
            combined = rain if combined is None else combined.merged(rain)
        self._fault_view = \
            combined if combined is not None and not combined.is_empty \
            else None
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

    def snapshot(self, time_s: float) -> TopologySnapshot:
        """Materialize the topology at ``time_s``.

        Fault events active at ``time_s`` (including rain, folded into
        the fault view) are excluded: outaged satellites lose their ISLs
        and GSLs, cut ISLs vanish, cut stations are disconnected, and
        attenuated stations see a higher effective minimum elevation.
        Statically failed satellites carry no GSLs (their ISLs were
        already dropped at construction).
        """
        positions = self.constellation.positions_ecef_m(time_s)
        isl_pairs = self.isl_pairs
        excluded = self.failed_satellites
        cut_gids: FrozenSet[int] = frozenset()
        faults = self._fault_view
        if faults is not None:
            outaged = faults.failed_satellites_at(time_s)
            cut_isls = faults.cut_isls_at(time_s)
            if outaged or cut_isls:
                isl_pairs = self._masked_isl_pairs(outaged, cut_isls)
            if outaged:
                excluded = excluded | outaged
            cut_gids = faults.cut_gids_at(time_s)
        if faults is not None or self.weather is not None:
            elevation = {}
            for station in self.ground_stations:
                if station.gid in cut_gids:
                    elevation[station.gid] = float("inf")
                    continue
                penalty = faults.elevation_penalty_deg(
                    station.gid, time_s) if faults is not None else 0.0
                elevation[station.gid] = min(
                    90.0, self.min_elevation_deg + penalty)
        else:
            elevation = self.min_elevation_deg
        return TopologySnapshot(
            time_s=time_s,
            satellite_positions_m=positions,
            isl_pairs=isl_pairs,
            isl_lengths_m=isl_lengths_m(isl_pairs, positions),
            gsl_edges=compute_gsl_edges(
                self.ground_stations, positions,
                elevation, self.gsl_policy,
                excluded_satellites=excluded or None),
            num_satellites=self.num_satellites,
            num_ground_stations=self.num_ground_stations,
            relay_gids=frozenset(
                station.gid for station in self.ground_stations
                if station.is_relay),
        )
