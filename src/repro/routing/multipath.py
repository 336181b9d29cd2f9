"""Multipath routing (paper §7: "work on multi-path routing ... will
require some modifications to Hypatia").

:func:`edge_disjoint_paths` is a greedy edge-disjoint path set between
two ground stations over a topology snapshot — the building block for
traffic-splitting schemes that avoid shared bottlenecks (the paper's
§5.4/TE takeaway).  It honors the framework's rule that only satellites
(and relays) forward: other ground stations are hidden from the search
graph.

It is the one-pair case of :func:`edge_disjoint_paths_many`, which
materializes the snapshot graph once and searches every pair through
:func:`networkx.restricted_view` (an O(1) overlay hiding third-party
ground stations and consumed edges).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..topology.network import TopologySnapshot

# networkx is imported inside the functions that search with it, so that
# ``import repro`` does not pay for it (~0.1 s, ~12 MiB).
if TYPE_CHECKING:
    import networkx as nx

__all__ = ["edge_disjoint_paths", "path_distance_m",
           "edge_disjoint_paths_many"]

PairKey = Tuple[int, int]
PathSet = List[Tuple[List[int], float]]


def path_distance_m(graph: nx.Graph, path: List[int]) -> float:
    """Total length of a path in the snapshot graph."""
    return sum(graph[a][b]["distance_m"] for a, b in zip(path, path[1:]))


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


def edge_disjoint_paths_many(snapshot: TopologySnapshot,
                             pairs: Sequence[PairKey], max_paths: int = 4
                             ) -> Dict[PairKey, PathSet]:
    """Greedy edge-disjoint path sets of many pairs of one snapshot.

    Each pair's greedy elimination runs over a view that hides the
    third-party non-relay ground stations and the edges its earlier
    paths consumed (edge hiding is symmetric on undirected graphs).

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
    for pair in dict.fromkeys((int(src), int(dst)) for src, dst in pairs):
        if pair[0] == pair[1]:
            raise ValueError("endpoints must differ")
        hidden = [snapshot.gs_node_id(gid)
                  for gid in range(snapshot.num_ground_stations)
                  if gid not in pair and gid not in snapshot.relay_gids]
        src, dst = (snapshot.gs_node_id(gid) for gid in pair)
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
