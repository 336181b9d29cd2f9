"""Oracles for routing: the scalar next-hop walk, one pair at a time,
that ``RoutingEngine.paths_and_distances`` replaced in ``src/``, and the
per-station GSL loop that ``TopologySnapshot.gsl_edge_arrays`` replaced.

Kept verbatim as the references the batched code must equal — paths
``==``, distances ``==`` as floats, arrays equal with their dtypes.
"""

import numpy as np

from repro.routing.engine import UNREACHABLE


def station_loop_gsl_edge_arrays(snapshot, gids):
    """``(gs_nodes, satellite_ids, lengths_m)`` of the listed stations'
    GSLs, in input order, built one station at a time."""
    nodes_list = []
    sats_list = []
    lengths_list = []
    for gid in gids:
        edges = snapshot.gsl_edges[gid]
        if not edges.is_connected:
            continue
        node = snapshot.gs_node_id(gid)
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


def scalar_path_and_distance(routing, snapshot, src_gid):
    """``(path, distance_m)`` of one source over one destination tree
    (a :class:`~repro.routing.engine.DestinationRouting`); ``(None, inf)``
    while disconnected."""
    ingress, distance = routing.source_ingress(snapshot.gsl_edges[src_gid])
    if ingress is None or not np.isfinite(distance):
        return None, float("inf")
    nodes = [snapshot.gs_node_id(src_gid)]
    current = ingress
    for _ in range(snapshot.num_nodes + 1):
        nodes.append(int(current))
        if current == routing.dst_node:
            return nodes, distance
        current = routing.next_hop[current]
        if current == UNREACHABLE:
            return None, float("inf")
    raise RuntimeError("next-hop walk did not terminate")
