"""Dynamic state: forwarding/path evolution over discrete time steps.

Paper §3.1/§5.3: Hypatia converts the continuous process of satellite
motion into discrete intervals (default 100 ms) at which forwarding state
is recomputed; link latencies stay continuous in between.  This module
holds that schedule (:func:`snapshot_times`), the inner loop that walks
a stretch of it (:func:`compute_pair_chunk`, driven by
:func:`repro.sweep.sweep_timelines`) and the per-pair timelines the
downstream analyses (Figs. 3, 6-9) consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.constants import SPEED_OF_LIGHT_M_PER_S
from .network import LeoNetwork

__all__ = ["snapshot_times", "PairTimeline", "satellites_of_path",
           "count_path_changes", "compute_pair_chunk",
           "make_routing_engine"]


def snapshot_times(duration_s: float, step_s: float) -> np.ndarray:
    """The forwarding-state update instants: 0, step, 2*step, ... < duration.

    Args:
        duration_s: Simulation duration.
        step_s: Time-step granularity (paper default 0.1 s).
    """
    if duration_s <= 0.0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if step_s <= 0.0:
        raise ValueError(f"step must be positive, got {step_s}")
    # ceil(duration / step) in floats can land one tick past the end in
    # either direction (8.2 / 0.1 rounds up to 83; a downward-rounding
    # quotient could lose a valid tick), so over-generate by one and trim
    # to the defining property: exactly the ticks whose float64 value
    # k * step is strictly below the duration.
    count = int(np.ceil(duration_s / step_s))
    times = np.arange(count + 1) * step_s
    return times[times < duration_s]


def satellites_of_path(path: Optional[Sequence[int]],
                       num_satellites: int) -> frozenset:
    """The set of satellite ids composing a path (endpoints excluded).

    Paper §5.2 counts a "path change" whenever this set differs between two
    successive time steps.
    """
    if path is None:
        return frozenset()
    return frozenset(node for node in path if node < num_satellites)


@dataclass
class PairTimeline:
    """Per-snapshot path history of one GS pair.

    Attributes:
        src_gid: Source ground station id.
        dst_gid: Destination ground station id.
        times_s: (T,) snapshot times.
        distances_m: (T,) shortest-path distance; inf while disconnected.
        paths: T node-id tuples (None while disconnected).
    """

    src_gid: int
    dst_gid: int
    times_s: np.ndarray
    distances_m: np.ndarray
    paths: List[Optional[Tuple[int, ...]]] = field(default_factory=list)

    @property
    def rtts_s(self) -> np.ndarray:
        """Propagation-only RTT series (seconds); inf while disconnected."""
        return 2.0 * self.distances_m / SPEED_OF_LIGHT_M_PER_S

    @property
    def connected_mask(self) -> np.ndarray:
        """(T,) bool: snapshots at which the pair had a path."""
        return np.isfinite(self.distances_m)

    def hop_counts(self) -> np.ndarray:
        """(T,) number of hops (edges) per snapshot; -1 while disconnected.

        Always ``int64``, including the empty and the all-disconnected
        cases (an untyped ``np.array([])`` would silently be float64).
        """
        return np.array([
            len(path) - 1 if path is not None else -1 for path in self.paths
        ], dtype=np.int64)

    def satellite_sets(self, num_satellites: int) -> List[frozenset]:
        """Per-snapshot satellite membership of the path."""
        return [satellites_of_path(path, num_satellites)
                for path in self.paths]


def count_path_changes(satellite_sets: Sequence[frozenset]) -> int:
    """Number of snapshot-to-snapshot changes in path satellite membership.

    Transitions into or out of disconnection (empty set) count as changes,
    except that the initial state establishes the baseline without counting.
    """
    changes = 0
    for previous, current in zip(satellite_sets, satellite_sets[1:]):
        if current != previous:
            changes += 1
    return changes


def make_routing_engine(network: LeoNetwork):
    """Build the routing engine a timeline walk uses.

    The :class:`~repro.routing.incremental.IncrementalRouter` repairs
    destination trees between consecutive snapshots — the stranded
    region under a sparse delta, a re-sum and one verify pass when
    satellites moved and every edge reweighted — and runs the batched
    from-scratch Dijkstra only for a new destination set or a step too
    long to repair; always bit-identical to a plain ``RoutingEngine``,
    with the choice counted in its ``inc_perf``.
    """
    # Imported here: repro.routing depends on repro.topology for its
    # type signatures, so a module-level import would be circular.
    from ..routing.incremental import IncrementalRouter
    return IncrementalRouter(network)


def compute_pair_chunk(network: LeoNetwork,
                       pairs: Sequence[Tuple[int, int]],
                       times_s: np.ndarray,
                       engine=None,
                       ) -> Dict[Tuple[int, int],
                                 Tuple[np.ndarray,
                                       List[Optional[Tuple[int, ...]]]]]:
    """Per-snapshot distances and paths of ``pairs`` over ``times_s``.

    The inner loop of every timeline walk, called once per chunk by
    :mod:`repro.sweep.engine`: a module-level function so
    multiprocessing can pickle it by reference, operating on a contiguous
    chunk of the snapshot schedule.  All destination trees of one
    snapshot come from a single batched Dijkstra
    (:meth:`RoutingEngine.route_to_many`), repaired incrementally between
    snapshots.

    Args:
        network: The LEO network to snapshot.
        pairs: (src_gid, dst_gid) pairs to track.
        times_s: The snapshot instants of this chunk, ascending.
        engine: Optional pre-built routing engine over ``network``
            (default: :func:`make_routing_engine`).

    Returns:
        pair -> ``(distances_m, paths)`` with ``distances_m`` of shape
        ``(len(times_s),)`` (inf while disconnected) and ``paths`` a list
        of node-id tuples (None while disconnected).
    """
    if engine is None:
        engine = make_routing_engine(network)
    pairs = list(dict.fromkeys((int(src), int(dst)) for src, dst in pairs))
    distances = np.full((len(pairs), len(times_s)), np.inf)
    paths: List[List[Optional[Tuple[int, ...]]]] = [[] for _ in pairs]
    destinations = sorted({dst for _, dst in pairs})
    for t_index, time_s in enumerate(times_s):
        snapshot = network.snapshot(float(time_s))
        multi = engine.route_to_many(snapshot, destinations)
        step_paths, distances[:, t_index] = engine.paths_and_distances(
            multi, snapshot, pairs)
        for history, path in zip(paths, step_paths):
            history.append(None if path is None else tuple(path))
    return {pair: (distances[i], paths[i]) for i, pair in enumerate(pairs)}
