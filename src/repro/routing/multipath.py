"""Multipath routing (paper §7: "work on multi-path routing ... will
require some modifications to Hypatia").

Two primitives over a topology snapshot:

* :func:`k_shortest_paths` — Yen-style loopless k-shortest paths between
  two ground stations (via networkx over the GS-transit-excluded graph);
* :func:`edge_disjoint_paths` — greedy edge-disjoint path set, the
  building block for traffic-splitting schemes that avoid shared
  bottlenecks (the paper's §5.4/TE takeaway).

Both honor the framework's rule that only satellites (and relays) forward:
other ground stations are removed from the search graph.

At sweep scale, use the batched :func:`k_shortest_paths_many` /
:func:`edge_disjoint_paths_many` precompute: they materialize the
snapshot graph once and evaluate every pair through
:func:`networkx.restricted_view` (an O(1) overlay hiding third-party
ground stations and consumed edges), instead of rebuilding and pruning
the full graph per pair.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..topology.network import TopologySnapshot

# networkx is imported inside the functions that search with it, so that
# ``import repro`` does not pay for it (~0.1 s, ~12 MiB).
if TYPE_CHECKING:
    import networkx as nx

__all__ = ["k_shortest_paths", "edge_disjoint_paths", "path_distance_m",
           "k_shortest_paths_many", "edge_disjoint_paths_many"]

PairKey = Tuple[int, int]
PathSet = List[Tuple[List[int], float]]


def _validate_pair(src_gid: int, dst_gid: int) -> None:
    if src_gid == dst_gid:
        raise ValueError("endpoints must differ")


def _search_graph(snapshot: TopologySnapshot, src_gid: int,
                  dst_gid: int) -> nx.Graph:
    """The snapshot graph with third-party (non-relay) GSes removed."""
    graph = snapshot.to_networkx()
    keep = {snapshot.gs_node_id(src_gid), snapshot.gs_node_id(dst_gid)}
    for gid in range(snapshot.num_ground_stations):
        node = snapshot.gs_node_id(gid)
        if node not in keep and not graph.nodes[node].get("is_relay", False):
            graph.remove_node(node)
    return graph


def _hidden_gs_nodes(snapshot: TopologySnapshot, graph: nx.Graph,
                     src_gid: int, dst_gid: int) -> List[int]:
    """Third-party non-relay GS nodes to hide for one pair's search."""
    keep = {snapshot.gs_node_id(src_gid), snapshot.gs_node_id(dst_gid)}
    return [
        node for gid in range(snapshot.num_ground_stations)
        if (node := snapshot.gs_node_id(gid)) not in keep
        and not graph.nodes[node].get("is_relay", False)
    ]


def path_distance_m(graph: nx.Graph, path: List[int]) -> float:
    """Total length of a path in the snapshot graph."""
    return sum(graph[a][b]["distance_m"] for a, b in zip(path, path[1:]))


def k_shortest_paths(snapshot: TopologySnapshot, src_gid: int,
                     dst_gid: int, k: int
                     ) -> List[Tuple[List[int], float]]:
    """The ``k`` shortest loopless paths between two ground stations.

    Args:
        snapshot: The topology at one instant.
        src_gid / dst_gid: Endpoints.
        k: Number of paths requested.

    Returns:
        Up to ``k`` ``(node-id path, distance_m)`` tuples, sorted by
        distance; empty if the pair is disconnected.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _validate_pair(src_gid, dst_gid)
    graph = _search_graph(snapshot, src_gid, dst_gid)
    return _k_shortest_in(graph, snapshot.gs_node_id(src_gid),
                          snapshot.gs_node_id(dst_gid), k)


def _k_shortest_in(graph: nx.Graph, src: int, dst: int, k: int) -> PathSet:
    import networkx as nx
    try:
        generator = nx.shortest_simple_paths(graph, src, dst,
                                             weight="distance_m")
        paths = list(islice(generator, k))
    except nx.NetworkXNoPath:
        return []
    return [(path, path_distance_m(graph, path)) for path in paths]


def edge_disjoint_paths(snapshot: TopologySnapshot, src_gid: int,
                        dst_gid: int, max_paths: int = 4
                        ) -> List[Tuple[List[int], float]]:
    """Greedy shortest edge-disjoint paths between two ground stations.

    Repeatedly takes the current shortest path and removes its edges;
    stops when the pair disconnects or ``max_paths`` is reached.  Greedy
    disjoint routing is the classic baseline for multipath TE: no two
    returned paths share any ISL or GSL, so splitting traffic across them
    cannot self-contend.
    """
    if max_paths < 1:
        raise ValueError(f"max_paths must be >= 1, got {max_paths}")
    # Equal endpoints used to slip through here and return ``max_paths``
    # copies of the degenerate single-node path [src] at distance 0
    # (nothing removes an edge, so the "shortest path" never changes).
    import networkx as nx
    _validate_pair(src_gid, dst_gid)
    graph = _search_graph(snapshot, src_gid, dst_gid)
    src = snapshot.gs_node_id(src_gid)
    dst = snapshot.gs_node_id(dst_gid)
    found: PathSet = []
    for _ in range(max_paths):
        try:
            path = nx.shortest_path(graph, src, dst, weight="distance_m")
        except nx.NetworkXNoPath:
            break
        found.append((path, path_distance_m(graph, path)))
        graph.remove_edges_from(list(zip(path, path[1:])))
    return found


def k_shortest_paths_many(snapshot: TopologySnapshot,
                          pairs: Sequence[PairKey], k: int
                          ) -> Dict[PairKey, PathSet]:
    """Batched :func:`k_shortest_paths` over many pairs of one snapshot.

    Builds the snapshot graph once and searches each pair through a
    :func:`networkx.restricted_view` overlay hiding that pair's
    third-party ground stations — the per-pair graph rebuild (the
    dominant cost at sweep scale) is paid a single time.  Results match
    :func:`k_shortest_paths` pair for pair.

    Args:
        snapshot: The topology at one instant.
        pairs: (src_gid, dst_gid) pairs; duplicates are computed once.
        k: Number of paths requested per pair.

    Returns:
        pair -> up to ``k`` ``(node-id path, distance_m)`` tuples.
    """
    import networkx as nx
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    graph = snapshot.to_networkx()
    results: Dict[PairKey, PathSet] = {}
    for src_gid, dst_gid in pairs:
        pair = (int(src_gid), int(dst_gid))
        if pair in results:
            continue
        _validate_pair(*pair)
        view = nx.restricted_view(
            graph, _hidden_gs_nodes(snapshot, graph, *pair), ())
        results[pair] = _k_shortest_in(
            view, snapshot.gs_node_id(pair[0]),
            snapshot.gs_node_id(pair[1]), k)
    return results


def edge_disjoint_paths_many(snapshot: TopologySnapshot,
                             pairs: Sequence[PairKey], max_paths: int = 4
                             ) -> Dict[PairKey, PathSet]:
    """Batched :func:`edge_disjoint_paths` over many pairs of one snapshot.

    One graph build serves every pair; each pair's greedy elimination
    runs over a :func:`networkx.restricted_view` that hides its
    third-party ground stations plus the edges its earlier paths
    consumed (edge hiding is symmetric on undirected graphs), so the
    base graph is never mutated.  Results match
    :func:`edge_disjoint_paths` pair for pair.

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
    for src_gid, dst_gid in pairs:
        pair = (int(src_gid), int(dst_gid))
        if pair in results:
            continue
        _validate_pair(*pair)
        hidden = _hidden_gs_nodes(snapshot, graph, *pair)
        src = snapshot.gs_node_id(pair[0])
        dst = snapshot.gs_node_id(pair[1])
        consumed: List[Tuple[int, int]] = []
        found: PathSet = []
        for _ in range(max_paths):
            view = nx.restricted_view(graph, hidden, consumed)
            try:
                path = nx.shortest_path(view, src, dst,
                                        weight="distance_m")
            except nx.NetworkXNoPath:
                break
            found.append((path, path_distance_m(graph, path)))
            consumed.extend(zip(path, path[1:]))
        results[pair] = found
    return results
