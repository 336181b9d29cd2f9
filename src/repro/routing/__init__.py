"""Shortest-path routing and forwarding state over topology snapshots."""

from .engine import (
    UNREACHABLE,
    DestinationRouting,
    MultiDestinationRouting,
    RoutingEngine,
    RoutingPerfCounters,
    canonical_next_hops,
)
from .incremental import (
    GraphDelta,
    IncrementalPerfCounters,
    IncrementalRouter,
    diff_graphs,
)
from .multipath import (
    edge_disjoint_paths,
    edge_disjoint_paths_many,
    path_distance_m,
)

__all__ = [
    "UNREACHABLE",
    "DestinationRouting",
    "MultiDestinationRouting",
    "RoutingEngine",
    "RoutingPerfCounters",
    "canonical_next_hops",
    "GraphDelta",
    "IncrementalPerfCounters",
    "IncrementalRouter",
    "diff_graphs",
    "edge_disjoint_paths",
    "edge_disjoint_paths_many",
    "path_distance_m",
]
