"""Shortest-path routing over topology snapshots.

Paper §3.1: for every time interval, Hypatia generates the network graph
(accounting for satellite positions and link lengths) and computes each
node's forwarding state with shortest-path routing.

This engine reproduces that computation with one *batched* Dijkstra over
all destination ground stations (scipy's C implementation), exploiting two
structural facts:

* Only satellites — and, in bent-pipe mode, relay ground stations — may
  forward traffic.  Ordinary GSes are endpoints.  The engine therefore
  builds a "transit graph" of ISLs plus relay GSLs in which non-relay GS
  nodes are isolated, and attaches each destination's own GSLs as edges
  *directed out of* the destination node.  Trees are grown from the
  destinations, so a directed GSL can be the first hop of its own tree but
  can never be entered from another destination's tree — paths can then
  never transit a third ground station, even with every destination's
  GSLs present in one matrix.
* All links are symmetric, so the shortest-path tree rooted at the
  destination simultaneously yields (a) the distance from every satellite
  to the destination and (b) every satellite's next hop toward it — exactly
  the forwarding state the packet simulator installs.

The transit graph is the same for every destination at a given snapshot,
so its edge arrays are built once per :class:`TopologySnapshot` (cached on
the engine, invalidated by snapshot identity) and all destination trees of
one forwarding update come out of a single multi-index
``scipy.sparse.csgraph.dijkstra`` call (:meth:`RoutingEngine.route_to_many`).

A source GS's ingress satellite is chosen afterwards by minimizing
``uplink + satellite-to-destination`` over its visible satellites; every
batched query does this for all its pairs in one table
(:meth:`MultiDestinationRouting.pair_ingress`).

Next hops are *derived from the distances* rather than taken from the
Dijkstra run's predecessor bookkeeping: a node's next hop toward the
destination is its smallest-id neighbour ``u`` whose edge is *tight*
(``dist[u] + w(u, v) == dist[v]`` exactly, in the same float64 ops the
relaxation performed — see :func:`canonical_next_hops`).  The final
distance array of Dijkstra with positive weights is the unique fixed
point of ``dist[v] = min_u(dist[u] + w(u, v))`` regardless of heap
order, so any algorithm that reproduces the distances — in particular
the incremental repair in :mod:`repro.routing.incremental` — reproduces
the next hops bit-for-bit through the same derivation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ..geo.constants import SPEED_OF_LIGHT_M_PER_S
from ..obs import spans
from ..topology.gsl import GslEdges
from ..topology.network import LeoNetwork, TopologySnapshot

__all__ = ["DestinationRouting", "MultiDestinationRouting",
           "PathWalk", "RoutingEngine", "RoutingPerfCounters",
           "UNREACHABLE", "canonical_next_hops", "path_tuples"]

#: Marker used in next-hop arrays for "no route".
UNREACHABLE = -1

#: Ids of forwarding updates, unique in the process, so a walk can name
#: the update it read (:attr:`PathWalk.update`) whatever router ran it.
_UPDATE_IDS = itertools.count(1)


def canonical_next_hops(rows: np.ndarray, cols: np.ndarray,
                        data: np.ndarray, distances: np.ndarray
                        ) -> np.ndarray:
    """Derive next-hop arrays from distance arrays, deterministically.

    For every directed edge ``u -> v`` of the routing graph, ``u`` is a
    valid next hop of ``v`` toward the tree root iff the edge is tight:
    ``dist[u] + w(u, v) == dist[v]`` with exact float64 equality — the
    relaxation that produced ``dist[v]`` performed this very addition, so
    at least one tight edge exists for every reachable non-root node.
    Among tight candidates the smallest node id wins, which makes the
    result a pure function of the distances: two routing computations
    that agree on distances (e.g. from-scratch and incremental repair)
    agree on next hops bit-for-bit.

    Args:
        rows / cols / data: COO arrays of the directed routing graph.
        distances: (D, num_nodes) distance rows, one per tree root.

    Returns:
        (D, num_nodes) int64 next hops; ``UNREACHABLE`` where no path
        exists and at each row's root itself (distance 0, no tight
        in-edge since all weights are positive).
    """
    num_trees, num_nodes = distances.shape
    sentinel = num_nodes  # greater than any node id
    next_hop = np.full((num_trees, num_nodes), sentinel, dtype=np.int64)
    for tree in range(num_trees):
        dist = distances[tree]
        at_col = dist[cols]
        tight = dist[rows] + data == at_col
        tight &= at_col != np.inf
        np.minimum.at(next_hop[tree], cols[tight], rows[tight])
    next_hop[next_hop == sentinel] = UNREACHABLE
    return next_hop


def _cut_paths(table: np.ndarray, counts: np.ndarray
               ) -> List[Optional[Tuple[int, ...]]]:
    """One node tuple per row of a :meth:`RoutingEngine.path_table`
    table — its first ``counts[i]`` cells, ``None`` where the count is 0
    — cut from the used cells with one flat conversion."""
    flat = table[np.arange(table.shape[1])
                 < counts[:, np.newaxis]].tolist()
    return [tuple(flat[end - count:end]) if count else None
            for end, count in zip(np.cumsum(counts).tolist(),
                                  counts.tolist())]


def path_tuples(table: np.ndarray, counts: np.ndarray, kept: np.ndarray,
                previous: Optional[Sequence[Optional[Tuple[int, ...]]]],
                previous_row: Optional[np.ndarray] = None
                ) -> List[Optional[Tuple[int, ...]]]:
    """The node tuples of a :meth:`RoutingEngine.path_table` table (one
    per row, ``None`` where the count is 0), sharing unchanged ones.

    A row whose path is the one it had in the previous walk takes that
    walk's tuple, so between nearby snapshots, where paths move for a
    few rows, a history of them holds each path once for as long as it
    lasts.  A row the walk kept (:attr:`PathWalk.kept`) takes it with no
    cut; a walked row is cut and compared.

    Args:
        table / counts / kept: This walk's rows.
        previous: The previous walk's tuples, or None (then nothing is
            kept).
        previous_row: Row ``i``'s row in ``previous``, -1 for a row it
            does not cover; the same row when omitted.
    """
    if previous is None:
        return _cut_paths(table, counts)
    paths = (list(previous) if previous_row is None
             else [previous[row] if row >= 0 else None
                   for row in previous_row.tolist()])
    fresh = np.flatnonzero(~kept)
    for row, path in zip(fresh.tolist(),
                         _cut_paths(table[fresh], counts[fresh])):
        if path != paths[row]:
            paths[row] = path
    return paths


@dataclass
class PathWalk:
    """One :meth:`RoutingEngine.path_table` walk, and what the next walk
    over the same pairs reuses of it.

    Attributes:
        table: (P, L) int64: row ``i`` holds pair ``i``'s path
            ``[src_node, ingress_sat, ..., dst_node]`` (relay GS nodes
            included in bent-pipe mode) in its first ``counts[i]``
            cells and ``UNREACHABLE`` after them.
        counts: (P,) node count of each path; 0 for a disconnected pair.
        distances: (P,) path lengths (m); inf while disconnected.
        ingress: (P,) the satellite each source enters at (arbitrary
            while disconnected).
        kept: (P,) rows copied from the previous walk instead of walked:
            their path is the one they had there.
        update: The forwarding update whose trees were walked — the
            router's remembered answer then — or None for trees the
            router does not remember.  The walk holds no trees: the next
            walk learns what moved since from the router.
        dst_gids: The trees' destinations.
    """

    table: np.ndarray
    counts: np.ndarray
    distances: np.ndarray
    ingress: np.ndarray
    kept: np.ndarray
    update: Optional[int]
    dst_gids: Tuple[int, ...]

    def take(self, rows: np.ndarray) -> "PathWalk":
        """This walk as the previous walk of other pairs: row ``i`` is
        row ``rows[i]`` here, or — at -1 — a pair this walk did not
        cover, which the next walk walks afresh (count 0)."""
        covered = rows >= 0
        picked = np.where(covered, rows, 0)
        return PathWalk(self.table[picked],
                        np.where(covered, self.counts[picked], 0),
                        self.distances[picked], self.ingress[picked],
                        covered, self.update, self.dst_gids)


@dataclass
class RoutingPerfCounters:
    """Lightweight accounting of the routing hot path.

    One instance is shared between a :class:`RoutingEngine` and whoever
    wants to report its cost (e.g. ``SimulationStats`` — the Fig. 2
    scalability benchmark records these alongside slowdown).

    Attributes:
        trees_computed: Destination trees computed (one per destination
            per forwarding update).
        dijkstra_calls: scipy ``dijkstra`` invocations (batched: one per
            update rather than one per destination).
        transit_builds: Times the transit edge arrays were actually
            (re)built from a snapshot.
        transit_cache_hits: Times they were reused from the snapshot cache.
    """

    trees_computed: int = 0
    dijkstra_calls: int = 0
    transit_builds: int = 0
    transit_cache_hits: int = 0

    @property
    def csr_rebuilds_avoided(self) -> int:
        """Transit-graph rebuilds the batched path saved.

        The pre-batching code rebuilt the transit arrays once per
        destination tree; the batched path builds them once per snapshot.
        """
        return self.trees_computed - self.transit_builds

    def as_dict(self) -> Dict[str, float]:
        """Flat summary (the benchmark-facing hook)."""
        return {
            "trees_computed": self.trees_computed,
            "dijkstra_calls": self.dijkstra_calls,
            "transit_builds": self.transit_builds,
            "transit_cache_hits": self.transit_cache_hits,
            "csr_rebuilds_avoided": self.csr_rebuilds_avoided,
        }


@dataclass(frozen=True)
class DestinationRouting:
    """Shortest-path state toward one destination GS at one instant.

    Attributes:
        dst_gid: Destination ground station id.
        dst_node: Its graph node id.
        distance_m: (num_nodes,) distance to the destination from every
            transit node (satellites and relays); ``inf`` where unreachable
            and for isolated non-relay GS nodes.
        next_hop: (num_nodes,) next node id on the shortest path toward the
            destination, ``UNREACHABLE`` where none exists.  For the last
            satellite before the destination this is ``dst_node`` itself
            (i.e. "send down the GSL").
    """

    dst_gid: int
    dst_node: int
    distance_m: np.ndarray
    next_hop: np.ndarray

    def source_ingress(self, source_edges: GslEdges
                       ) -> Tuple[Optional[int], float]:
        """Best ingress satellite for a source GS with the given GSLs.

        Returns:
            ``(satellite_id, total_distance_m)``; ``(None, inf)`` if the
            destination is unreachable from this source right now.
        """
        if not source_edges.is_connected:
            return None, float("inf")
        totals = (source_edges.lengths_m
                  + self.distance_m[source_edges.satellite_ids])
        best = int(np.argmin(totals))
        total = float(totals[best])
        if not np.isfinite(total):
            return None, float("inf")
        return int(source_edges.satellite_ids[best]), total


@dataclass(frozen=True)
class MultiDestinationRouting:
    """Shortest-path state toward many destinations at one instant.

    The batched result of :meth:`RoutingEngine.route_to_many`: row ``i``
    of the matrices is the destination tree of ``dst_gids[i]``.  A
    request is its destination *set*: the rows follow ascending gids,
    whatever the order (and repeats) of the gids asked for.

    Attributes:
        dst_gids: The distinct destination gids, ascending.
        dst_nodes: (D,) their graph node ids.
        distance_m: (D, num_nodes) distances toward each destination.
        next_hop: (D, num_nodes) next hops toward each destination,
            ``UNREACHABLE`` where none exists.
    """

    dst_gids: Tuple[int, ...]
    dst_nodes: np.ndarray
    distance_m: np.ndarray
    next_hop: np.ndarray
    _row_of: Dict[int, int] = field(repr=False, default_factory=dict)

    def routing_for(self, dst_gid: int) -> DestinationRouting:
        """The single-destination view of one row (zero-copy)."""
        row = self._row_of[int(dst_gid)]
        return DestinationRouting(
            dst_gid=int(dst_gid),
            dst_node=int(self.dst_nodes[row]),
            distance_m=self.distance_m[row],
            next_hop=self.next_hop[row],
        )

    def pair_ingress(self, snapshot: TopologySnapshot,
                     src_gids: np.ndarray, dst_gids: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ingress satellite and distance of many pairs, one table.

        One (P, K) ``uplink + satellite-to-destination`` table over
        inf-padded per-source GSL rows — pad slots last, so ``argmin``'s
        first minimum is the one
        :meth:`DestinationRouting.source_ingress` picks, from the same
        float additions.

        Returns:
            ``(rows, ingress, totals_m)``, each (P,): the pair's row of
            this result, the satellite its source enters at and the
            source-to-destination distance — ``inf`` (and an arbitrary
            satellite) while the pair is disconnected.
        """
        sources, slot = np.unique(src_gids, return_inverse=True)
        destinations, dst_slot = np.unique(dst_gids, return_inverse=True)
        rows = np.array([self._row_of[gid]
                         for gid in destinations.tolist()])[dst_slot]
        gs_nodes, sat_ids, lengths = snapshot.gsl_edge_arrays(
            sources.tolist())
        # Each GSL goes to its source's row, at its place among that
        # source's GSLs (they arrive grouped, sources ascending).
        station = np.searchsorted(sources,
                                  gs_nodes - snapshot.num_satellites)
        column = np.arange(len(station)) - np.searchsorted(station, station)
        uplink_sat = np.zeros((len(sources), column.max(initial=0) + 1),
                              dtype=np.int64)
        uplink_m = np.full(uplink_sat.shape, np.inf)
        uplink_sat[station, column] = sat_ids
        uplink_m[station, column] = lengths
        sats = uplink_sat[slot]
        totals = uplink_m[slot] + self.distance_m.reshape(-1)[
            (rows * self.distance_m.shape[1])[:, np.newaxis] + sats]
        best = np.argmin(totals, axis=1)
        pick = np.arange(len(rows))
        return rows, sats[pick, best], totals[pick, best]


class RoutingEngine:
    """Computes shortest-path forwarding state over a network's snapshots.

    Args:
        network: The LEO network; its node-numbering convention is adopted.
        perf: Optional shared perf-counter sink; a private one is created
            when omitted (exposed as :attr:`perf`).

    Apart from the static edge index arrays (ISL endpoints, relay
    identities), which it precomputes once, the engine keeps two pieces
    of dynamic state, both keyed by snapshot identity: the transit edge
    arrays of the most recent snapshot, so that the many destination
    trees of one forwarding update share a single graph construction,
    and the most recent answer (:meth:`route_to_many`), with what its
    update changed and the last :meth:`paths_many` walk over it.
    """

    def __init__(self, network: LeoNetwork,
                 perf: Optional[RoutingPerfCounters] = None) -> None:
        self.network = network
        self.perf = perf if perf is not None else RoutingPerfCounters()
        self._num_sats = network.num_satellites
        self._num_nodes = network.num_nodes
        self._relay_gids = [
            station.gid for station in network.ground_stations
            if station.is_relay
        ]
        self._relay_gid_set = frozenset(self._relay_gids)
        self._cached_snapshot: Optional[TopologySnapshot] = None
        self._cached_transit: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        #: The last update's snapshot and answer.
        self._prev_snapshot: Optional[TopologySnapshot] = None
        self._prev_result: Optional[MultiDestinationRouting] = None
        #: Callers that may still hold ``_prev_result`` itself: each
        #: return of it lends it, :meth:`_hand_back` returns a loan.  At
        #: zero a repairing subclass may write its arrays in place.
        self._loans = 0
        #: The id of ``_prev_result``'s update, and of the update before.
        self._update_id = 0
        self._moved_from = 0
        #: Sorted flat keys ``tree * num_nodes + vertex`` of every next
        #: hop the last update re-derived from ``_moved_from``'s trees —
        #: a superset of those that changed — or None: it solved, so
        #: everything moved.
        self._moved: Optional[np.ndarray] = None
        #: The last :meth:`paths_many` call's pairs, walk and paths.
        self._last_paths: Optional[Tuple[
            np.ndarray, PathWalk, List[Optional[Tuple[int, ...]]]]] = None

    # ------------------------------------------------------------------
    # Core batched computation
    # ------------------------------------------------------------------

    def route_to_many(self, snapshot: TopologySnapshot,
                      dst_gids: Sequence[int]) -> MultiDestinationRouting:
        """Shortest-path state toward every given destination, batched.

        Builds the transit graph once (cached per snapshot), appends all
        destinations' GSL edges — directed out of each destination node —
        into one sparse matrix, and computes every destination tree with a
        single multi-index Dijkstra call.

        The request is the destination *set* (rows ascending by gid).
        The engine remembers its last answer: the same snapshot and set
        again, in any order, return that very object.  Every return of
        the remembered answer lends it until the caller hands it back
        (:meth:`_hand_back`); a repairing subclass copies a lent answer
        rather than write it.
        """
        unique_gids = self._unique_gids(dst_gids)
        if (snapshot is self._prev_snapshot
                and self._prev_result.dst_gids == unique_gids):
            self._loans += 1
            return self._prev_result
        # No local holds the old answer through the update: a repair may
        # free it early.
        self._prev_result = self._update(snapshot, unique_gids)
        self._prev_snapshot = snapshot
        self._loans = 1
        return self._prev_result

    @spans.timed("routing.route_to_many")
    def _update(self, snapshot: TopologySnapshot,
                unique_gids: Tuple[int, ...]) -> MultiDestinationRouting:
        """One forwarding update: graph, trees (:meth:`_trees`), accounting.

        A repair of the remembered trees records the next hops it
        re-derived in ``_moved``; a solve leaves it None.
        """
        self._moved = None
        graph, dst_nodes, coo = self.destination_graph_coo(snapshot,
                                                           unique_gids)
        distances, next_hop = self._trees(graph, dst_nodes, coo, unique_gids)
        self._moved_from, self._update_id = (self._update_id,
                                             next(_UPDATE_IDS))
        self.perf.trees_computed += len(unique_gids)
        return MultiDestinationRouting(
            dst_gids=unique_gids,
            dst_nodes=dst_nodes,
            distance_m=distances,
            next_hop=next_hop,
            _row_of={gid: i for i, gid in enumerate(unique_gids)},
        )

    def _trees(self, graph: csr_matrix, dst_nodes: np.ndarray,
               coo: Tuple[np.ndarray, np.ndarray, np.ndarray],
               unique_gids: Tuple[int, ...]
               ) -> Tuple[np.ndarray, np.ndarray]:
        """The update's ``(distances, next_hop)``: here always a solve."""
        self.perf.dijkstra_calls += 1
        return self.solve_trees(graph, dst_nodes, coo)

    def _hand_back(self, multi: MultiDestinationRouting) -> None:
        """Return one loan of a result of :meth:`route_to_many` that the
        caller has walked and dropped."""
        if multi is self._prev_result and self._loans:
            self._loans -= 1

    @staticmethod
    def _unique_gids(dst_gids: Sequence[int]) -> Tuple[int, ...]:
        """The destination set: distinct int gids, ascending."""
        unique_gids = tuple(sorted({int(gid) for gid in dst_gids}))
        if not unique_gids:
            raise ValueError("need at least one destination gid")
        return unique_gids

    def destination_graph_coo(self, snapshot: TopologySnapshot,
                              unique_gids: Sequence[int]
                              ) -> Tuple[csr_matrix, np.ndarray,
                                         Tuple[np.ndarray, np.ndarray,
                                               np.ndarray]]:
        """The directed routing graph of one forwarding update.

        Transit edges (cached per snapshot) plus every destination's own
        GSLs directed out of the destination node, as one CSR matrix in
        canonical (row-major, column-sorted, duplicate-summed) form, so
        structurally identical updates produce byte-identical matrices.

        The CSR matrix is assembled directly from the edge triplets
        sorted by ``row * num_nodes + col`` — one argsort instead of
        scipy's generic COO machinery, which profiles several times
        slower on the per-snapshot hot path.  The sorted triplets are
        returned as well (the next-hop derivation reads them and the
        incremental layer diffs them), so callers never pay a ``tocoo``
        round trip.

        Returns:
            ``(graph, dst_nodes, (rows, cols, data))`` — the (num_nodes,
            num_nodes) CSR matrix, the (D,) graph node ids of the
            destinations and the matrix's COO triplets.

        Raises:
            ValueError: An edge appears twice.  scipy would add the two
                lengths, where two parallel links are as long as the
                shorter one; the topology layer never builds one
                (``validate_isl_pairs`` refuses duplicate ISLs, and relay
                and destination GSLs are disjoint).
        """
        num_nodes = self._num_nodes
        rows, cols, data = self._transit_arrays(snapshot)
        dst_nodes = np.array([snapshot.gs_node_id(gid)
                              for gid in unique_gids], dtype=np.int64)
        # Non-relay destinations contribute their own GSLs, directed
        # dst -> satellite so other trees cannot transit them; relay
        # destinations are already (symmetrically) in the transit graph.
        gsl_gids = [gid for gid in unique_gids
                    if gid not in self._relay_gid_set]
        gs_nodes, sat_ids, lengths = snapshot.gsl_edge_arrays(gsl_gids)
        if len(gs_nodes):
            rows = np.concatenate([rows, gs_nodes.astype(np.int64)])
            cols = np.concatenate([cols, sat_ids.astype(np.int64)])
            data = np.concatenate([data, lengths])
        order = np.argsort(rows * np.int64(num_nodes) + cols,
                           kind="stable")
        rows, cols, data = rows[order], cols[order], data[order]
        repeated = np.flatnonzero((rows[1:] == rows[:-1])
                                  & (cols[1:] == cols[:-1]))
        if len(repeated):
            raise ValueError(
                f"routing edge {int(rows[repeated[0]])} -> "
                f"{int(cols[repeated[0]])} appears twice")
        counts = np.bincount(rows, minlength=num_nodes)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        graph = csr_matrix((data, cols, indptr),
                           shape=(num_nodes, num_nodes))
        return graph, dst_nodes, (rows, cols, data)

    @staticmethod
    def solve_trees(graph: csr_matrix, dst_nodes: np.ndarray,
                    coo: Tuple[np.ndarray, np.ndarray, np.ndarray]
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """All destination trees of one update, from scratch.

        One multi-index C-level Dijkstra for the distances, then the
        canonical next-hop derivation (see :func:`canonical_next_hops`)
        over ``coo``, the graph's triplets as
        :meth:`destination_graph_coo` returned them.
        """
        distances = np.atleast_2d(dijkstra(graph, directed=True,
                                           indices=dst_nodes))
        return distances, canonical_next_hops(*coo, distances)

    def _transit_arrays(self, snapshot: TopologySnapshot
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Directed transit edge arrays, cached by snapshot identity.

        Transit links are symmetric, so each appears in both directions;
        the cache holds a strong reference to the snapshot, making
        identity comparison safe against id() reuse.
        """
        if snapshot is self._cached_snapshot:
            self.perf.transit_cache_hits += 1
            assert self._cached_transit is not None
            return self._cached_transit
        rows, cols, data = self._transit_edges(snapshot)
        directed = (np.concatenate([rows, cols]),
                    np.concatenate([cols, rows]),
                    np.concatenate([data, data]))
        self._cached_snapshot = snapshot
        self._cached_transit = directed
        self.perf.transit_builds += 1
        return directed

    @spans.timed("routing.transit_build")
    def _transit_edges(self, snapshot: TopologySnapshot
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One-way edge arrays of the transit graph (ISLs + relay GSLs)."""
        rows_list: List[np.ndarray] = [snapshot.isl_pairs[:, 0]]
        cols_list: List[np.ndarray] = [snapshot.isl_pairs[:, 1]]
        data_list: List[np.ndarray] = [snapshot.isl_lengths_m]
        relay_nodes, relay_sats, relay_lengths = snapshot.gsl_edge_arrays(
            self._relay_gids)
        if len(relay_nodes):
            rows_list.append(relay_nodes)
            cols_list.append(relay_sats)
            data_list.append(relay_lengths)
        return (np.concatenate(rows_list).astype(np.int64),
                np.concatenate(cols_list).astype(np.int64),
                np.concatenate(data_list).astype(np.float64))

    # ------------------------------------------------------------------
    # Pair-level queries
    # ------------------------------------------------------------------

    def pair_distance_m(self, snapshot: TopologySnapshot,
                        src_gid: int, dst_gid: int) -> float:
        """Shortest-path distance between two GSes; inf if disconnected.

        A station is at distance 0 from itself.
        """
        if src_gid == dst_gid:
            return 0.0
        multi = self.route_to_many(snapshot, [dst_gid])
        try:
            return float(multi.pair_ingress(
                snapshot, np.array([src_gid]), np.array([dst_gid]))[2][0])
        finally:
            self._hand_back(multi)

    def pair_rtt_s(self, snapshot: TopologySnapshot,
                   src_gid: int, dst_gid: int) -> float:
        """Propagation-only RTT between two GSes (paper's 'Computed' RTT)."""
        distance = self.pair_distance_m(snapshot, src_gid, dst_gid)
        return 2.0 * distance / SPEED_OF_LIGHT_M_PER_S

    def path(self, snapshot: TopologySnapshot, src_gid: int,
             dst_gid: int) -> Optional[Tuple[int, ...]]:
        """Node-id tuple of the shortest path, or None if disconnected.

        The tuple runs ``(src_node, ingress_sat, ..., egress_sat,
        dst_node)`` and may include relay GS nodes in bent-pipe mode
        (:meth:`paths_many` of the one pair).
        """
        return self.paths_many(snapshot, [(src_gid, dst_gid)])[0]

    def path_and_distance_via(self, routing: DestinationRouting,
                              snapshot: TopologySnapshot, src_gid: int
                              ) -> Tuple[Optional[Tuple[int, ...]], float]:
        """Shortest path (a node tuple) *and* its distance over an
        existing tree.

        Returns:
            ``(path, distance_m)``; ``(None, inf)`` while disconnected.
        """
        multi = MultiDestinationRouting(
            dst_gids=(routing.dst_gid,),
            dst_nodes=np.array([routing.dst_node], dtype=np.int64),
            distance_m=routing.distance_m[np.newaxis],
            next_hop=routing.next_hop[np.newaxis],
            _row_of={routing.dst_gid: 0})
        paths, distances = self.paths_and_distances(
            multi, snapshot, [(src_gid, routing.dst_gid)])
        return paths[0], float(distances[0])

    def paths_and_distances(self, multi: MultiDestinationRouting,
                            snapshot: TopologySnapshot,
                            pairs: Sequence[Tuple[int, int]]
                            ) -> Tuple[List[Optional[Tuple[int, ...]]],
                                       np.ndarray]:
        """Shortest paths and distances of many pairs, as tuples.

        :meth:`path_table`'s walk, with every row cut into a node tuple
        (:func:`path_tuples`).

        Returns:
            ``(paths, distances_m)``: per pair the node-id tuple
            ``(src_node, ingress_sat, ..., dst_node)`` (relay GS nodes
            included in bent-pipe mode) and its length; ``None`` and
            ``inf`` while the pair is disconnected.
        """
        walk = self.path_table(multi, snapshot, pairs)
        return (path_tuples(walk.table, walk.counts, walk.kept, None),
                walk.distances)

    @spans.timed("routing.paths")
    def path_table(self, multi: MultiDestinationRouting,
                   snapshot: TopologySnapshot,
                   pairs: Sequence[Tuple[int, int]],
                   previous: Optional[PathWalk] = None) -> PathWalk:
        """Shortest paths and distances of many pairs, one batched walk.

        Every pair enters at the satellite
        :meth:`MultiDestinationRouting.pair_ingress` picks, and all
        pairs then follow their destination's ``next_hop`` row together,
        one hop per iteration.

        Given ``previous``, an earlier walk of the same pairs, a row is
        walked only if its path can have moved: its ingress changed, it
        had no path, or its old path reads a ``(tree, node)`` next hop
        that moved since.  A walk reads nothing else, so every other row
        walks its old path again and is copied instead
        (:attr:`PathWalk.kept`).  What moved comes from the router, not
        from old trees: nothing when ``previous`` walked this very
        update of the remembered answer; the next hops this update
        re-derived when it walked the update just before.  In every
        other case — ``multi`` is not the remembered answer, or an
        update went by unwalked, or the update solved afresh — every
        row is walked.  The result is the full walk's, bit for bit.

        Args:
            multi: Trees covering every destination in ``pairs``.
            snapshot: The snapshot ``multi`` was computed on.
            pairs: (src_gid, dst_gid) pairs; duplicates are fine.
            previous: An earlier walk of ``pairs``, row for row.
        """
        num_pairs = len(pairs)
        update = self._update_id if multi is self._prev_result else None
        if not num_pairs:
            return PathWalk(np.full((0, 1), UNREACHABLE, dtype=np.int64),
                            np.zeros(0, dtype=np.int64), np.empty(0),
                            np.zeros(0, dtype=np.int64),
                            np.zeros(0, dtype=bool), update,
                            multi.dst_gids)
        src_gids, dst_gids = np.asarray(pairs, dtype=np.int64).T
        rows, ingress, best_totals = multi.pair_ingress(snapshot, src_gids,
                                                        dst_gids)
        walk = np.isfinite(best_totals)
        kept = np.zeros(num_pairs, dtype=bool)
        moved_keys = self._moved_since(previous, update, multi.dst_gids)
        if moved_keys is not None:
            kept = walk & (previous.counts > 0) & (previous.ingress == ingress)
            if len(moved_keys):
                # Per tree, a first column that never moves, then its
                # moved next hops.  Only rows of a tree with a moved
                # next hop can have moved.  Cell c of such a row reads
                # next hop (tree, c), at flat position tree * (N + 1) +
                # 1 + c of ``moved``; past the path's end (c = -1) that
                # is the tree's first column.  The source cell reads no
                # next hop.
                num_nodes = self._num_nodes
                trees = moved_keys // num_nodes
                moved = np.zeros(len(multi.dst_gids) * (1 + num_nodes),
                                 dtype=bool)
                moved[moved_keys + trees + 1] = True
                tree_moved = np.zeros(len(multi.dst_gids), dtype=bool)
                tree_moved[trees] = True
                check = np.flatnonzero(kept & tree_moved[rows])
                kept[check] = ~moved[
                    (rows[check] * (num_nodes + 1) + 1)[:, np.newaxis]
                    + previous.table[check, 1:]].any(axis=1)
            walk &= ~kept
        walking = np.flatnonzero(walk)
        current = ingress[walking]
        rows, dst_nodes = rows[walking], multi.dst_nodes[rows[walking]]
        # Level i holds the (i+1)-th node of every pair still walking.
        levels: List[Tuple[np.ndarray, np.ndarray]] = []
        hops = np.zeros(num_pairs, dtype=np.int64)
        while walking.size:
            if len(levels) > self._num_nodes:
                raise RuntimeError("next-hop walk did not terminate; "
                                   "routing state is inconsistent")
            levels.append((walking, current))
            arrived = current == dst_nodes
            hops[walking[arrived]] = len(levels)
            current = multi.next_hop[rows, current]
            # A dead end keeps hops == 0: no path.
            keep = ~arrived & (current != UNREACHABLE)
            walking, current = walking[keep], current[keep]
            rows, dst_nodes = rows[keep], dst_nodes[keep]
        width = len(levels) + 1
        if kept.any():
            hops[kept] = previous.counts[kept] - 1
            width = max(width, int(hops[kept].max()) + 1)
        table = np.full((num_pairs, width), UNREACHABLE, dtype=np.int64)
        if kept.any():
            copied = min(width, previous.table.shape[1])
            table[:, :copied] = previous.table[:, :copied]
            table[np.flatnonzero(~kept)] = UNREACHABLE
        for level, (members, nodes) in enumerate(levels, start=1):
            table[members, level] = nodes
        routed = hops > 0
        # A dead end wrote cells of a row that has no path.
        table[np.flatnonzero(walk & ~routed)] = UNREACHABLE
        fresh = np.flatnonzero(routed & ~kept)
        table[fresh, 0] = self._num_sats + src_gids[fresh]
        distances = np.full(num_pairs, np.inf)
        distances[routed] = best_totals[routed]
        counts = hops + routed
        return PathWalk(table, counts, distances, ingress, kept, update,
                        multi.dst_gids)

    def _moved_since(self, previous: Optional[PathWalk],
                     update: Optional[int], dst_gids: Tuple[int, ...]
                     ) -> Optional[np.ndarray]:
        """The sorted ``tree * num_nodes + vertex`` keys of every next
        hop that can have moved between ``previous``'s walk and a walk
        of ``update`` over ``dst_gids`` — or None when that is unknown,
        and every row must be walked."""
        if (previous is None or update is None
                or previous.dst_gids != dst_gids):
            return None
        if previous.update == update:
            return np.empty(0, dtype=np.int64)
        if previous.update == self._moved_from:
            return self._moved
        return None

    def paths_many(self, snapshot: TopologySnapshot,
                   pairs: Sequence[Tuple[int, int]]
                   ) -> List[Optional[Tuple[int, ...]]]:
        """Shortest paths of many (src_gid, dst_gid) pairs, batched.

        All distinct destinations are routed in one Dijkstra call (or
        one repair) and all pairs extracted in one walk
        (:meth:`path_table`).  Returns one node tuple (or None) per
        input pair, in order.

        The engine remembers its last call's pairs, walk and tuples.
        Called again with the same pairs, it walks only the pairs whose
        path can have moved since, and a pair whose path did not change
        gets back the very tuple it got last time
        (:func:`path_tuples`), so a history of what-if steps holds each
        path once for as long as it lasts.
        """
        if not pairs:
            return []
        multi = self.route_to_many(snapshot, [dst for _, dst in pairs])
        try:
            pair_array = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            previous = previous_paths = None
            if (self._last_paths is not None
                    and np.array_equal(self._last_paths[0], pair_array)):
                _, previous, previous_paths = self._last_paths
            walk = self.path_table(multi, snapshot, pair_array, previous)
            paths = path_tuples(walk.table, walk.counts, walk.kept,
                                previous_paths)
            self._last_paths = (pair_array, walk, paths)
            # The caller's list is its own: the remembered one stays.
            return list(paths)
        finally:
            self._hand_back(multi)
