"""Time-varying network topology: ISLs, GSLs, snapshots, dynamic state."""

from .dynamic_state import (
    PairTimeline,
    count_path_changes,
    satellites_of_path,
    snapshot_times,
)
from .gsl import GslEdges, GslPolicy, compute_gsl_edges
from .isl import (
    isl_lengths_m,
    no_isls,
    plus_grid_isls,
    single_ring_isls,
    validate_isl_pairs,
)
from .network import LeoNetwork, TopologySnapshot

__all__ = [
    "PairTimeline",
    "count_path_changes",
    "satellites_of_path",
    "snapshot_times",
    "GslEdges",
    "GslPolicy",
    "compute_gsl_edges",
    "isl_lengths_m",
    "no_isls",
    "plus_grid_isls",
    "single_ring_isls",
    "validate_isl_pairs",
    "LeoNetwork",
    "TopologySnapshot",
]
