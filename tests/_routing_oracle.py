"""Oracle for path extraction: the scalar next-hop walk, one pair at a
time, that ``RoutingEngine.paths_and_distances`` replaced in ``src/``.

Kept verbatim as the reference the batched walk must equal — paths
``==`` and distances ``==`` as floats, not approximately.
"""

import numpy as np

from repro.routing.engine import UNREACHABLE


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
