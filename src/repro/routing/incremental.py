"""Incremental shortest-path routing between consecutive snapshots.

Hypatia recomputes all forwarding state from scratch at every interval
(paper §3.1), yet consecutive snapshots often differ by a handful of
GSL/ISL edge changes — exactly the sparse delta the fault subsystem
produces when an outage begins or ends while satellite positions are
effectively unchanged.  This module exploits that sparsity:

* :func:`diff_graphs` extracts the edge delta (additions, removals,
  reweights) between two canonical routing graphs;
* :class:`IncrementalRouter` repairs the previous update's batched
  destination trees instead of recomputing them, via *affected-vertex
  repair*: invalidate the tree descendants of every worsened tree
  edge (pointer doubling over the parent arrays, all trees at once),
  seed the invalidated region from its intact boundary and every
  improved edge, then relax the seeds to the fixed point with batched
  frontier rounds shared across all destination trees;
* when the delta is large (every ISL length changes as satellites move,
  or the destination set changed), it falls back to the batched
  from-scratch :meth:`~repro.routing.engine.RoutingEngine.route_to_many`
  — the diff itself is a cheap vectorized merge, so fallback costs
  almost nothing on top of the full solve.

Bit-identical by construction: the final distance array of Dijkstra
with positive weights is the unique fixed point of
``dist[v] = min_u(dist[u] + w(u, v))`` over float64 — independent of
relaxation order — and the repair performs the same ``dist[u] + w``
additions the from-scratch run performs, so repaired distances equal
from-scratch distances bit-for-bit.  Next hops are a pure function of
the distances through the shared canonical rule
(:func:`repro.routing.engine.canonical_next_hops`); the repair
re-derives them only where an input of that rule changed, which yields
the same array bit-for-bit.  The property-style tests in
``tests/test_routing_incremental.py`` force the repair path on *dense*
deltas (every edge reweighted) and assert exact equality against the
from-scratch engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from ..obs import spans
from ..obs.trace import ROUTING_COMPUTE, Tracer
from ..topology.network import LeoNetwork, TopologySnapshot
from .engine import (MultiDestinationRouting, RoutingEngine,
                     RoutingPerfCounters, UNREACHABLE)

__all__ = ["GraphDelta", "IncrementalPerfCounters", "IncrementalRouter",
           "diff_graphs"]


@dataclass(frozen=True)
class GraphDelta:
    """The directed-edge delta between two canonical routing graphs.

    Symmetric transit links contribute both directions independently.
    ``worsened_*`` lists edges that vanished or got longer (they can only
    invalidate shortest paths), ``improved_*`` edges that appeared or got
    shorter (they can only create better paths); a reweighted edge lands
    in exactly one of the two.

    Attributes:
        worsened_u / worsened_v: Tail/head of removed or lengthened edges.
        improved_u / improved_v / improved_w: Tail/head/new weight of
            added or shortened edges.
        num_changed: Total changed directed edges.
        num_edges: Directed edge count of the *new* graph.
    """

    worsened_u: np.ndarray
    worsened_v: np.ndarray
    improved_u: np.ndarray
    improved_v: np.ndarray
    improved_w: np.ndarray
    num_changed: int
    num_edges: int

    @property
    def change_fraction(self) -> float:
        """Changed directed edges as a fraction of the new graph's."""
        return self.num_changed / max(self.num_edges, 1)


def diff_graphs(old_rows: np.ndarray, old_cols: np.ndarray,
                old_data: np.ndarray, new_rows: np.ndarray,
                new_cols: np.ndarray, new_data: np.ndarray,
                num_nodes: int) -> GraphDelta:
    """Edge delta between two canonical (lexsorted, coalesced) graphs.

    Both edge lists must be in canonical COO order — row-major with
    sorted columns and summed duplicates, which is exactly what
    ``csr_matrix(...).tocoo()`` yields — so the diff is one sorted merge
    over scalar ``row * num_nodes + col`` keys.
    """
    old_keys = old_rows * np.int64(num_nodes) + old_cols
    new_keys = new_rows * np.int64(num_nodes) + new_cols
    # Both key arrays are sorted and unique (canonical order), so the
    # merge is a single searchsorted — much cheaper than the argsort
    # np.intersect1d performs on the concatenation.
    if len(old_keys):
        pos = np.searchsorted(old_keys, new_keys)
        matched = (old_keys[np.minimum(pos, len(old_keys) - 1)]
                   == new_keys)
        old_idx = pos[matched]
        new_idx = np.nonzero(matched)[0]
    else:
        old_idx = np.empty(0, dtype=np.int64)
        new_idx = np.empty(0, dtype=np.int64)
    removed = np.ones(len(old_keys), dtype=bool)
    removed[old_idx] = False
    added = np.ones(len(new_keys), dtype=bool)
    added[new_idx] = False
    old_w = old_data[old_idx]
    new_w = new_data[new_idx]
    increased = new_w > old_w
    decreased = new_w < old_w
    worsened_u = np.concatenate([old_rows[removed], old_rows[old_idx][increased]])
    worsened_v = np.concatenate([old_cols[removed], old_cols[old_idx][increased]])
    improved_u = np.concatenate([new_rows[added], new_rows[new_idx][decreased]])
    improved_v = np.concatenate([new_cols[added], new_cols[new_idx][decreased]])
    improved_w = np.concatenate([new_data[added], new_w[decreased]])
    num_changed = (int(removed.sum()) + int(added.sum())
                   + int(increased.sum()) + int(decreased.sum()))
    return GraphDelta(
        worsened_u=worsened_u.astype(np.int64),
        worsened_v=worsened_v.astype(np.int64),
        improved_u=improved_u.astype(np.int64),
        improved_v=improved_v.astype(np.int64),
        improved_w=improved_w,
        num_changed=num_changed,
        num_edges=len(new_keys),
    )


@dataclass
class IncrementalPerfCounters:
    """Accounting of the incremental layer's decisions and work.

    Attributes:
        full_solves: From-scratch batched Dijkstra runs (first update,
            destination-set changes, and large-delta fallbacks).
        repairs: Updates served by affected-vertex repair.
        fallbacks_large_delta: Full solves forced by the delta exceeding
            the fallback fraction.
        snapshot_cache_hits: Updates answered from the per-snapshot
            result cache without any graph work.
        edges_changed: Directed edges changed across all diffed updates.
        vertices_invalidated: Tree vertices invalidated across repairs.
        repair_wall_s: Wall-clock seconds spent inside repairs (diff,
            invalidation, warm Dijkstra, next-hop rederivation).
    """

    full_solves: int = 0
    repairs: int = 0
    fallbacks_large_delta: int = 0
    snapshot_cache_hits: int = 0
    edges_changed: int = 0
    vertices_invalidated: int = 0
    repair_wall_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat summary (benchmark-facing, like RoutingPerfCounters)."""
        return {
            "full_solves": self.full_solves,
            "repairs": self.repairs,
            "fallbacks_large_delta": self.fallbacks_large_delta,
            "snapshot_cache_hits": self.snapshot_cache_hits,
            "edges_changed": self.edges_changed,
            "vertices_invalidated": self.vertices_invalidated,
            "repair_wall_s": self.repair_wall_s,
        }


class IncrementalRouter(RoutingEngine):
    """A :class:`RoutingEngine` that repairs trees between snapshots.

    Drop-in replacement: every inherited query (``path_via``,
    ``paths_many``, ``all_pairs_distance_m``, ...) funnels through the
    overridden :meth:`route_to_many`, which diffs the new update's
    routing graph against the previous one and repairs the cached
    destination trees when the delta is sparse.

    Args:
        network: The LEO network (see :class:`RoutingEngine`).
        perf: Optional shared routing perf counters.
        tracer: Optional trace-event sink.
        fallback_fraction: Repair only while
            ``changed_edges <= fallback_fraction * num_edges``; larger
            deltas (every ISL length changes when satellites move) run
            the from-scratch batched Dijkstra instead.  Any value >= the
            maximum possible fraction (e.g. ``2.0``) forces the repair
            path always — correct but slow, used by the parity tests.
        inc_perf: Optional shared :class:`IncrementalPerfCounters`.
    """

    def __init__(self, network: LeoNetwork,
                 perf: Optional[RoutingPerfCounters] = None,
                 tracer: Optional[Tracer] = None,
                 fallback_fraction: float = 0.1,
                 inc_perf: Optional[IncrementalPerfCounters] = None) -> None:
        super().__init__(network, perf=perf, tracer=tracer)
        if fallback_fraction < 0.0:
            raise ValueError(
                f"fallback fraction must be >= 0, got {fallback_fraction}")
        self.fallback_fraction = fallback_fraction
        self.inc_perf = (inc_perf if inc_perf is not None
                         else IncrementalPerfCounters())
        self._prev_snapshot: Optional[TopologySnapshot] = None
        self._prev_gids: Optional[Tuple[int, ...]] = None
        self._prev_coo: Optional[Tuple[np.ndarray, np.ndarray,
                                       np.ndarray]] = None
        self._prev_result: Optional[MultiDestinationRouting] = None

    # ------------------------------------------------------------------
    # The incremental update
    # ------------------------------------------------------------------

    def route_to_many(self, snapshot: TopologySnapshot,
                      dst_gids: Sequence[int]) -> MultiDestinationRouting:
        """Forwarding state toward every destination, repaired when cheap.

        Bit-identical to
        :meth:`repro.routing.engine.RoutingEngine.route_to_many` on the
        same snapshot, whichever path (repair or fallback) runs.
        """
        unique_gids = self._unique_gids(dst_gids)
        if (self._prev_result is not None
                and snapshot is self._prev_snapshot
                and tuple(unique_gids) == self._prev_gids):
            self.inc_perf.snapshot_cache_hits += 1
            return self._prev_result
        profiler = spans.ACTIVE
        span = (profiler.begin("routing.route_to_many")
                if profiler.enabled else -1)
        start = time.perf_counter()
        graph, dst_nodes, (rows, cols, data) = self.destination_graph_coo(
            snapshot, unique_gids)
        delta = None
        if (self._prev_coo is not None
                and tuple(unique_gids) == self._prev_gids):
            prev_rows, prev_cols, prev_data = self._prev_coo
            delta = diff_graphs(prev_rows, prev_cols, prev_data,
                                rows, cols, data, self._num_nodes)
            self.inc_perf.edges_changed += delta.num_changed
            if delta.change_fraction > self.fallback_fraction:
                self.inc_perf.fallbacks_large_delta += 1
                delta = None
        if delta is None:
            distances, next_hop = self.solve_trees(graph, dst_nodes,
                                                   (rows, cols, data))
            self.inc_perf.full_solves += 1
            self.perf.dijkstra_calls += 1
        else:
            distances, next_hop = self._repair_trees(graph, delta)
            self.inc_perf.repairs += 1
        elapsed = time.perf_counter() - start
        self.perf.trees_computed += len(unique_gids)
        self.perf.routing_compute_s += elapsed
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(float(snapshot.time_s), ROUTING_COMPUTE,
                        seq=len(unique_gids), value=elapsed)
        result = MultiDestinationRouting(
            dst_gids=tuple(unique_gids),
            dst_nodes=dst_nodes,
            distance_m=distances,
            next_hop=next_hop,
            _row_of={gid: i for i, gid in enumerate(unique_gids)},
        )
        self._prev_snapshot = snapshot
        self._prev_gids = tuple(unique_gids)
        self._prev_coo = (rows, cols, data)
        self._prev_result = result
        if span != -1:
            profiler.end(span)
        return result

    def _repair_trees(self, graph: csr_matrix, delta: GraphDelta
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Repair every cached destination tree against ``delta``.

        Phases (each batched across all destination trees):

        1. *Invalidate*: a worsened edge ``u -> v`` that was ``v``'s tree
           edge (``prev_next_hop[v] == u``) strands ``v`` and its whole
           tree subtree — their old distances may no longer be
           achievable, so they reset to inf
           (:meth:`_invalidated_mask`).  Vertices whose tree path
           survived keep distances that remain achievable upper bounds.
        2. *Seed + settle*: every invalidated vertex is offered its best
           boundary value over still-finite in-neighbours, every
           improved edge offers ``dist[u] + w_new`` to its head, and
           frontier rounds relax the offers to the fixed point
           (:meth:`_settle`).
        3. *Next hops*: re-derived sparsely from the repaired distances
           (:meth:`_sparse_next_hops`).
        """
        profiler = spans.ACTIVE
        span = (profiler.begin("routing.incremental_repair")
                if profiler.enabled else -1)
        started = time.perf_counter()
        assert self._prev_result is not None
        prev = self._prev_result
        # Callers hold zero-copy views of the previous result's arrays:
        # repair fresh copies, never the cached matrices in place.
        distances = prev.distance_m.copy()
        csc = graph.tocsc()
        poison = self._invalidated_mask(prev.next_hop, delta, graph)
        self.inc_perf.vertices_invalidated += int(poison.sum())
        self._settle(distances, poison, delta, graph, csc)
        next_hop = self._sparse_next_hops(prev.next_hop, prev.distance_m,
                                          distances, delta, graph, csc)
        self.inc_perf.repair_wall_s += time.perf_counter() - started
        if span != -1:
            profiler.end(span)
        return distances, next_hop

    @staticmethod
    def _invalidated_mask(prev_next_hop: np.ndarray, delta: GraphDelta,
                          graph: csr_matrix) -> np.ndarray:
        """(D, num_nodes) bool: vertices whose old distance may be stale.

        A vertex is invalidated iff its previous-tree path to the root
        crosses a worsened tree edge.  The subtree closure descends from
        the seeds level by level over the *new* graph's adjacency, which
        is sound: a surviving tree edge ``v -> c`` is still in the new
        adjacency, and a deleted tree edge makes its child ``c`` a seed
        in its own right (the deleted edge is worsened and was ``c``'s
        tree edge).  Work is proportional to the stranded region, not to
        ``num_trees * num_nodes``.
        """
        num_trees, num_nodes = prev_next_hop.shape
        poison = np.zeros(num_trees * num_nodes, dtype=bool)
        if not len(delta.worsened_u):
            return poison.reshape(num_trees, num_nodes)
        # Seed: worsened edges that were tree edges, per tree.
        seeded = prev_next_hop[:, delta.worsened_v] == delta.worsened_u
        if not seeded.any():
            return poison.reshape(num_trees, num_nodes)
        tree_idx, edge_idx = np.nonzero(seeded)
        parents_flat = prev_next_hop.reshape(-1)
        frontier = _dedup(tree_idx * num_nodes
                          + delta.worsened_v[edge_idx])
        while len(frontier):
            poison[frontier] = True
            flat_idx, tree_rep, tail_rep = _gather_adjacency(
                graph.indptr, frontier // num_nodes, frontier % num_nodes)
            heads = graph.indices[flat_idx]
            keys = tree_rep * num_nodes + heads
            # Children: vertices whose previous tree edge came from the
            # frontier vertex.  Each child has one parent, so no
            # deduplication or revisit guard is needed.
            child = parents_flat[keys] == tail_rep
            frontier = keys[child]
        return poison.reshape(num_trees, num_nodes)

    @staticmethod
    def _settle(dist: np.ndarray, poison: np.ndarray, delta: GraphDelta,
                graph: csr_matrix, csc) -> None:
        """Drive ``dist`` (D, num_nodes) to the new graph's fixed point.

        Invalidated vertices reset to inf and are offered their best
        value over still-finite in-neighbours; improved edges offer
        ``dist[u] + w_new`` to their heads.  Batched frontier rounds
        (all trees at once, keyed by ``tree * num_nodes + vertex``) then
        relax every offer until no distance decreases.  Each update is
        the same float64 ``dist[u] + w`` a from-scratch Dijkstra
        performs, and the fixed point of
        ``dist[v] = min_u(dist[u] + w(u, v))`` with positive weights is
        unique and relaxation-order independent, so the settled
        distances are bit-identical to from-scratch.
        """
        num_trees, num_nodes = dist.shape
        flat = dist.reshape(-1)
        frontier_parts = []
        aff_keys = np.nonzero(poison.reshape(-1))[0]
        if len(aff_keys):
            flat[aff_keys] = np.inf
            flat_idx, tree_rep, head_rep = _gather_adjacency(
                csc.indptr, aff_keys // num_nodes, aff_keys % num_nodes)
            base = tree_rep * num_nodes
            offers = (flat[base + csc.indices[flat_idx]]
                      + csc.data[flat_idx])
            finite = np.isfinite(offers)
            keys = base[finite] + head_rep[finite]
            np.minimum.at(flat, keys, offers[finite])
            frontier_parts.append(keys)
        if len(delta.improved_u):
            offers = (dist[:, delta.improved_u]
                      + delta.improved_w).reshape(-1)
            keys = (np.arange(num_trees)[:, np.newaxis] * num_nodes
                    + delta.improved_v).reshape(-1)
            finite = np.isfinite(offers)
            keys, offers = keys[finite], offers[finite]
            before = flat[keys]
            np.minimum.at(flat, keys, offers)
            frontier_parts.append(keys[flat[keys] < before])
        if not frontier_parts:
            return
        frontier = _dedup(np.concatenate(frontier_parts))
        while len(frontier):
            flat_idx, tree_rep, tail_rep = _gather_adjacency(
                graph.indptr, frontier // num_nodes, frontier % num_nodes)
            if not len(flat_idx):
                return
            base = tree_rep * num_nodes
            offers = flat[base + tail_rep] + graph.data[flat_idx]
            keys = base + graph.indices[flat_idx]
            before = flat[keys]
            np.minimum.at(flat, keys, offers)
            frontier = _dedup(keys[flat[keys] < before])

    @staticmethod
    def _sparse_next_hops(prev_next_hop: np.ndarray, old_dist: np.ndarray,
                          new_dist: np.ndarray, delta: GraphDelta,
                          graph: csr_matrix, csc) -> np.ndarray:
        """Next hops for ``new_dist``, re-derived only where they can move.

        ``next_hop[v]`` is a pure function of ``dist[v]``, the in-edges
        of ``v``, and the in-neighbours' distances
        (:func:`~repro.routing.engine.canonical_next_hops`): the smallest
        tail id whose edge is tight.  Copying the previous next hops and
        re-deriving exactly the vertices where one of those inputs
        changed — distance-changed vertices, their graph out-neighbours
        (an in-neighbour's distance moved), and the heads of
        added/removed/reweighted edges — therefore reproduces the full
        derivation bit-for-bit.
        """
        num_trees, num_nodes = new_dist.shape
        next_hop = prev_next_hop.copy()
        new_flat = new_dist.reshape(-1)
        changed_keys = np.nonzero((new_dist != old_dist).reshape(-1))[0]
        parts = []
        if len(changed_keys):
            parts.append(changed_keys)
            flat_idx, tree_rep, _ = _gather_adjacency(
                graph.indptr, changed_keys // num_nodes,
                changed_keys % num_nodes)
            parts.append(tree_rep * num_nodes + graph.indices[flat_idx])
        changed_heads = _dedup(np.concatenate([delta.worsened_v,
                                               delta.improved_v]))
        if len(changed_heads):
            parts.append((np.arange(num_trees)[:, np.newaxis] * num_nodes
                          + changed_heads).reshape(-1))
        if not parts:
            return next_hop
        keys = _dedup(np.concatenate(parts))
        flat_idx, tree_rep, head_rep = _gather_adjacency(
            csc.indptr, keys // num_nodes, keys % num_nodes)
        tails = csc.indices[flat_idx]
        base = tree_rep * num_nodes
        head_keys = base + head_rep
        head_d = new_flat[head_keys]
        tight = ((new_flat[base + tails] + csc.data[flat_idx] == head_d)
                 & np.isfinite(head_d))
        sentinel = num_nodes  # greater than any node id
        best = np.full(num_trees * num_nodes, sentinel, dtype=np.int64)
        np.minimum.at(best, head_keys[tight], tails[tight])
        chosen = best[keys]
        next_hop.reshape(-1)[keys] = np.where(chosen == sentinel,
                                              UNREACHABLE, chosen)
        return next_hop


def _dedup(keys: np.ndarray) -> np.ndarray:
    """Sorted unique values of an int64 key array.

    Sort-based rather than ``np.unique``: the hash path numpy picks for
    small integer arrays is an order of magnitude slower than sorting at
    the sizes the repair loop sees (hundreds to a few thousand keys).
    """
    if len(keys) <= 1:
        return keys
    keys = np.sort(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _gather_adjacency(indptr: np.ndarray, tree_idx: np.ndarray,
                      vertex_idx: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat adjacency positions of many (tree, vertex) pairs at once.

    Returns ``(flat_idx, tree_rep, vertex_rep)``: ``flat_idx`` indexes
    the CSR/CSC ``indices``/``data`` arrays with every incident edge of
    every requested vertex, and the ``*_rep`` arrays repeat each input
    pair once per such edge.
    """
    starts = indptr[vertex_idx].astype(np.int64)
    lengths = indptr[vertex_idx + 1].astype(np.int64) - starts
    total = int(lengths.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    flat_idx = np.repeat(starts - offsets, lengths) + np.arange(total)
    return flat_idx, np.repeat(tree_idx, lengths), np.repeat(vertex_idx,
                                                             lengths)
