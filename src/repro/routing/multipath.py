"""Multipath routing (paper §7: "work on multi-path routing ... will
require some modifications to Hypatia").

Two primitives over a topology snapshot:

* :func:`k_shortest_paths` — Yen-style loopless k-shortest paths between
  two ground stations (via networkx over the GS-transit-excluded graph);
* :func:`edge_disjoint_paths` — greedy edge-disjoint path set, the
  building block for traffic-splitting schemes that avoid shared
  bottlenecks (the paper's §5.4/TE takeaway).

Both honor the framework's rule that only satellites (and relays) forward:
other ground stations are hidden from the search graph.

Both are the one-pair case of :func:`k_shortest_paths_many` /
:func:`edge_disjoint_paths_many`, which materialize the snapshot graph
once and search every pair through :func:`networkx.restricted_view` (an
O(1) overlay hiding third-party ground stations and consumed edges).
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Tuple

from ..topology.network import TopologySnapshot

# networkx is imported inside the functions that search with it, so that
# ``import repro`` does not pay for it (~0.1 s, ~12 MiB).
if TYPE_CHECKING:
    import networkx as nx

__all__ = ["k_shortest_paths", "edge_disjoint_paths", "path_distance_m",
           "k_shortest_paths_many", "edge_disjoint_paths_many"]

PairKey = Tuple[int, int]
PathSet = List[Tuple[List[int], float]]


def _searches(snapshot: TopologySnapshot, pairs: Sequence[PairKey]
              ) -> Iterator[Tuple[PairKey, List[int], int, int]]:
    """Per distinct pair ``(pair, hidden, src_node, dst_node)``: its end
    nodes and the third-party non-relay GS nodes its search must not
    see."""
    for pair in dict.fromkeys((int(src), int(dst)) for src, dst in pairs):
        if pair[0] == pair[1]:
            raise ValueError("endpoints must differ")
        hidden = [snapshot.gs_node_id(gid)
                  for gid in range(snapshot.num_ground_stations)
                  if gid not in pair and gid not in snapshot.relay_gids]
        yield (pair, hidden, snapshot.gs_node_id(pair[0]),
               snapshot.gs_node_id(pair[1]))


def path_distance_m(graph: nx.Graph, path: List[int]) -> float:
    """Total length of a path in the snapshot graph."""
    return sum(graph[a][b]["distance_m"] for a, b in zip(path, path[1:]))


def k_shortest_paths(snapshot: TopologySnapshot, src_gid: int,
                     dst_gid: int, k: int) -> PathSet:
    """The ``k`` shortest loopless paths between two ground stations.

    Args:
        snapshot: The topology at one instant.
        src_gid / dst_gid: Endpoints.
        k: Number of paths requested.

    Returns:
        Up to ``k`` ``(node-id path, distance_m)`` tuples, sorted by
        distance; empty if the pair is disconnected.
    """
    pair = (int(src_gid), int(dst_gid))
    return k_shortest_paths_many(snapshot, [pair], k)[pair]


def edge_disjoint_paths(snapshot: TopologySnapshot, src_gid: int,
                        dst_gid: int, max_paths: int = 4) -> PathSet:
    """Greedy shortest edge-disjoint paths between two ground stations.

    Repeatedly takes the current shortest path and removes its edges;
    stops when the pair disconnects or ``max_paths`` is reached.  Greedy
    disjoint routing is the classic baseline for multipath TE: no two
    returned paths share any ISL or GSL, so splitting traffic across them
    cannot self-contend.
    """
    pair = (int(src_gid), int(dst_gid))
    return edge_disjoint_paths_many(snapshot, [pair], max_paths)[pair]


def k_shortest_paths_many(snapshot: TopologySnapshot,
                          pairs: Sequence[PairKey], k: int
                          ) -> Dict[PairKey, PathSet]:
    """Yen-style loopless k-shortest paths of many pairs of one snapshot.

    Args:
        snapshot: The topology at one instant.
        pairs: (src_gid, dst_gid) pairs; duplicates are computed once.
        k: Number of paths requested per pair.

    Returns:
        pair -> up to ``k`` ``(node-id path, distance_m)`` tuples, sorted
        by distance.
    """
    import networkx as nx
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    graph = snapshot.to_networkx()
    results: Dict[PairKey, PathSet] = {}
    for pair, hidden, src, dst in _searches(snapshot, pairs):
        view = nx.restricted_view(graph, hidden, ())
        try:
            paths = list(islice(nx.shortest_simple_paths(
                view, src, dst, weight="distance_m"), k))
        except nx.NetworkXNoPath:
            paths = []
        results[pair] = [(path, path_distance_m(graph, path))
                         for path in paths]
    return results


def edge_disjoint_paths_many(snapshot: TopologySnapshot,
                             pairs: Sequence[PairKey], max_paths: int = 4
                             ) -> Dict[PairKey, PathSet]:
    """Greedy edge-disjoint path sets of many pairs of one snapshot.

    Each pair's greedy elimination runs over a view that also hides the
    edges its earlier paths consumed (edge hiding is symmetric on
    undirected graphs).

    Args:
        snapshot: The topology at one instant.
        pairs: (src_gid, dst_gid) pairs; duplicates are computed once.
        max_paths: Per-pair cap on the disjoint set size.

    Returns:
        pair -> edge-disjoint ``(node-id path, distance_m)`` tuples.
    """
    import networkx as nx
    if max_paths < 1:
        raise ValueError(f"max_paths must be >= 1, got {max_paths}")
    graph = snapshot.to_networkx()
    results: Dict[PairKey, PathSet] = {}
    for pair, hidden, src, dst in _searches(snapshot, pairs):
        consumed: List[Tuple[int, int]] = []
        found = results[pair] = []
        for _ in range(max_paths):
            view = nx.restricted_view(graph, hidden, consumed)
            try:
                path = nx.shortest_path(view, src, dst,
                                        weight="distance_m")
            except nx.NetworkXNoPath:
                break
            found.append((path, path_distance_m(graph, path)))
            consumed.extend(zip(path, path[1:]))
    return results
