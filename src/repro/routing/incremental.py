"""Incremental shortest-path routing between consecutive snapshots.

Hypatia recomputes all forwarding state from scratch at every interval
(paper §3.1), yet consecutive snapshots differ little: a handful of
GSL/ISL edge changes when an outage begins or ends at a frozen epoch,
or — as satellites move — a small reweighting of every edge that
reroutes well under one per cent of the (tree, vertex) pairs.  This
module repairs the previous update's trees in both cases:

* :func:`diff_graphs` extracts the edge delta (additions, removals,
  reweights) between two canonical routing graphs;
* a *sparse* delta takes the *affected-vertex repair*: invalidate the
  tree descendants of every worsened tree edge (level by level over the
  parent arrays, all trees at once), seed the invalidated region from
  its intact boundary and every improved edge, then relax the seeds to
  the fixed point with batched frontier rounds shared across all
  destination trees — work proportional to the stranded region;
* a *dense* delta (every ISL length changes as satellites move) takes
  the *re-sum repair*: re-sum the old trees on the new weights, verify
  every edge against the result in one vectorised pass, and hand the
  few violating offers to the same frontier rounds — work proportional
  to edges x trees, about half a full solve on a 1 s step;
* a new destination set, or a dense delta whose verify pass finds too
  many violations, runs the batched from-scratch
  :meth:`~repro.routing.engine.RoutingEngine.route_to_many`.

Bit-identical by construction: the final distance array of Dijkstra
with positive weights is the unique fixed point of
``dist[v] = min_u(dist[u] + w(u, v))`` over float64 — independent of
relaxation order.  Both repairs start from achievable upper bounds made
of the same ``dist[u] + w`` additions the from-scratch run performs
(surviving old distances; old tree paths re-summed root to leaf) and
relax until no edge is violated while every finite vertex keeps a tight
in-edge, so they end in that fixed point bit-for-bit.  Next hops are a
pure function of the distances through the shared canonical rule
(:func:`repro.routing.engine.canonical_next_hops`); the repairs
re-derive them only where an input of that rule changed, which yields
the same array bit-for-bit.  ``tests/test_routing_incremental.py`` and
the Hypothesis differential in ``tests/test_property_based.py`` assert
exact equality against the from-scratch engine on every path.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix

from ..obs import spans
from ..obs.trace import Tracer
from ..topology.network import LeoNetwork, TopologySnapshot
from .engine import (MultiDestinationRouting, RoutingEngine,
                     RoutingPerfCounters, UNREACHABLE)

__all__ = ["GraphDelta", "IncrementalPerfCounters", "IncrementalRouter",
           "diff_graphs"]

#: The re-sum repair gives up for a full solve once its verify pass has
#: found more violating offers than this share of the (tree, vertex)
#: pairs.  The verify pass is paid by then, so the bound sits above the
#: share where repairing costs what one full solve does (about 1.8 % on
#: S1 x 100) and below the share where settling costs a full solve on
#: top (about 4 %): the table in results/routing_incremental.txt.
MAX_VIOLATED_SHARE = 0.025

#: A delta that changes at most this share of the directed edges (an
#: outage beginning or ending) takes the affected-vertex repair; a
#: denser one (satellites moved, every edge reweighted) the re-sum
#: repair.  Real deltas sit far from the boundary on either side.
SPARSE_DELTA_SHARE = 0.1

#: Edges per block of the verify pass; its (block, D) float temporaries
#: must stay cache-resident.
_VERIFY_BLOCK = 256


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
        old_to_new: Per old edge (canonical order), the index of the
            same edge in the new graph's canonical order; -1 where it
            was removed.
    """

    worsened_u: np.ndarray
    worsened_v: np.ndarray
    improved_u: np.ndarray
    improved_v: np.ndarray
    improved_w: np.ndarray
    num_changed: int
    num_edges: int
    old_to_new: np.ndarray

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
    old_to_new = np.full(len(old_keys), -1, dtype=np.int64)
    old_to_new[old_idx] = new_idx
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
        old_to_new=old_to_new,
    )


@dataclass
class IncrementalPerfCounters:
    """Accounting of the incremental layer's decisions and work.

    Every update is exactly one of: a snapshot cache hit, a repair
    (``repairs``, of which ``reweight_repairs`` took the re-sum path and
    the rest the affected-vertex path) or a full solve; a full solve is
    the cold first one, or forced by a new destination set
    (``destination_changes``) or by a re-sum repair that gave up
    (``fallbacks_large_delta``).

    Attributes:
        full_solves: From-scratch batched Dijkstra runs.
        repairs: Updates served by either repair.
        reweight_repairs: Updates served by the re-sum repair (dense
            deltas: the moving timeline).
        fallbacks_large_delta: Full solves after a dense delta whose
            re-sum repair gave up: its verify pass found more than
            ``MAX_VIOLATED_SHARE`` of the (tree, vertex) pairs violated.
        destination_changes: Full solves forced by a destination set
            other than the previous update's.
        snapshot_cache_hits: Updates answered from the per-snapshot
            result cache without any graph work.
        edges_changed: Directed edges changed across all diffed updates.
        vertices_invalidated: Tree vertices invalidated across
            affected-vertex repairs.
        edges_violated: Violating offers ``dist[u] + w < dist[v]`` the
            verify pass found across re-sum repairs.
        repair_wall_s: Wall-clock seconds spent in the repair code of
            both kinds (diff included, and attempts that gave up).
    """

    full_solves: int = 0
    repairs: int = 0
    reweight_repairs: int = 0
    fallbacks_large_delta: int = 0
    destination_changes: int = 0
    snapshot_cache_hits: int = 0
    edges_changed: int = 0
    vertices_invalidated: int = 0
    edges_violated: int = 0
    repair_wall_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flat summary (benchmark-facing, like RoutingPerfCounters)."""
        return dataclasses.asdict(self)


class IncrementalRouter(RoutingEngine):
    """A :class:`RoutingEngine` that repairs trees between snapshots.

    Drop-in replacement: every inherited query (``paths_many``,
    ``pair_distance_m``, ...) funnels through :meth:`route_to_many`,
    whose :meth:`_trees` hook diffs the update's routing graph against
    the previous one and repairs the remembered destination trees (see
    the module docstring for the two repairs).  :attr:`inc_perf` counts
    which path each update took.
    """

    def __init__(self, network: LeoNetwork,
                 perf: Optional[RoutingPerfCounters] = None,
                 tracer: Optional[Tracer] = None) -> None:
        super().__init__(network, perf=perf, tracer=tracer)
        self.inc_perf = IncrementalPerfCounters()
        self._prev_snapshot: Optional[TopologySnapshot] = None
        self._prev_coo: Optional[Tuple[np.ndarray, np.ndarray,
                                       np.ndarray]] = None
        self._prev_result: Optional[MultiDestinationRouting] = None
        #: Per (tree, vertex) the tree edge's index in ``_prev_coo``;
        #: derived on demand (None) after a full solve.
        self._prev_parent_edge: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # The incremental update
    # ------------------------------------------------------------------

    def route_to_many(self, snapshot: TopologySnapshot,
                      dst_gids: Sequence[int]) -> MultiDestinationRouting:
        """Forwarding state toward every destination, repaired when cheap.

        Bit-identical to
        :meth:`repro.routing.engine.RoutingEngine.route_to_many` on the
        same snapshot, whichever path (cache hit, either repair, or full
        solve) runs.
        """
        unique_gids = self._unique_gids(dst_gids)
        if (snapshot is self._prev_snapshot
                and unique_gids == self._prev_result.dst_gids):
            self.inc_perf.snapshot_cache_hits += 1
            return self._prev_result
        self._prev_result = self._update(snapshot, unique_gids)
        self._prev_snapshot = snapshot
        return self._prev_result

    def _trees(self, graph: csr_matrix, dst_nodes: np.ndarray,
               coo: Tuple[np.ndarray, np.ndarray, np.ndarray],
               unique_gids: Tuple[int, ...]
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Repair the remembered trees onto ``graph``, or solve afresh."""
        solved = None
        if self._prev_coo is not None:  # else cold: nothing to repair
            if unique_gids == self._prev_result.dst_gids:
                solved = self._repair(graph, dst_nodes, coo)
            else:
                self.inc_perf.destination_changes += 1
        if solved is None:
            solved = super()._trees(graph, dst_nodes, coo, unique_gids)
            self._prev_parent_edge = None
            self.inc_perf.full_solves += 1
        self._prev_coo = coo
        return solved

    def _repair(self, graph: csr_matrix, dst_nodes: np.ndarray,
                coo: Tuple[np.ndarray, np.ndarray, np.ndarray]
                ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Repair the previous trees onto ``graph``; None to solve afresh.

        The choice rests on the delta alone: a changed-edge share within
        ``SPARSE_DELTA_SHARE`` takes the affected-vertex repair, whose
        work is proportional to the stranded region; a denser delta
        (satellites moved, every edge reweighted) takes the re-sum
        repair, whose work is one pass over all (edge, tree) pairs and
        which gives up (returns None) when that pass finds more than
        ``MAX_VIOLATED_SHARE`` of the (tree, vertex) pairs violated.
        """
        profiler = spans.ACTIVE
        span = (profiler.begin("routing.incremental_repair")
                if profiler.enabled else -1)
        started = time.perf_counter()
        assert self._prev_coo is not None
        delta = diff_graphs(*self._prev_coo, *coo, self._num_nodes)
        counters = self.inc_perf
        counters.edges_changed += delta.num_changed
        if delta.change_fraction <= SPARSE_DELTA_SHARE:
            solved = self._repair_trees(graph, delta)
        else:
            solved = self._reweight_trees(graph, dst_nodes, coo, delta)
            if solved is None:
                counters.fallbacks_large_delta += 1
            else:
                counters.reweight_repairs += 1
        if solved is not None:
            counters.repairs += 1
        counters.repair_wall_s += time.perf_counter() - started
        if span != -1:
            profiler.end(span)
        return solved

    # ------------------------------------------------------------------
    # Affected-vertex repair (sparse deltas)
    # ------------------------------------------------------------------

    def _repair_trees(self, graph: csr_matrix, delta: GraphDelta
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Repair every cached destination tree against a sparse delta.

        Phases (each batched across all destination trees):

        1. *Invalidate*: a worsened edge ``u -> v`` that was ``v``'s tree
           edge (``prev_next_hop[v] == u``) strands ``v`` and its whole
           tree subtree — their old distances may no longer be
           achievable, so they reset to inf
           (:meth:`_invalidated_mask`).  Vertices whose tree path
           survived keep distances that remain achievable upper bounds.
        2. *Seed + settle*: every invalidated vertex is offered its best
           boundary value over still-finite in-neighbours, every
           improved edge offers ``dist[u] + w_new`` to its head
           (:meth:`_stranded_seeds`), and frontier rounds relax the
           offers to the fixed point (:meth:`_settle`).
        3. *Next hops*: re-derived sparsely from the repaired distances
           (:meth:`_sparse_next_hops`).
        """
        assert self._prev_result is not None
        prev = self._prev_result
        num_trees = len(prev.dst_nodes)
        # Callers hold zero-copy views of the previous result's arrays:
        # repair fresh copies, never the cached matrices in place.
        distances = prev.distance_m.copy()
        next_hop = prev.next_hop.copy()
        csc = graph.tocsc()
        poison = self._invalidated_mask(prev.next_hop, delta, graph)
        self.inc_perf.vertices_invalidated += int(poison.sum())
        keys, offers = self._stranded_seeds(distances, poison, delta, csc)
        self._settle(distances, keys, offers, graph)
        # Besides moved distances, an added, removed or reweighted edge
        # changes what its head can choose from, in every tree.
        changed_heads = _dedup(np.concatenate([delta.worsened_v,
                                               delta.improved_v]))
        self._sparse_next_hops(
            next_hop, distances,
            np.flatnonzero((distances != prev.distance_m).reshape(-1)),
            (np.arange(num_trees)[:, np.newaxis] * self._num_nodes
             + changed_heads).reshape(-1),
            graph, csc)
        self._prev_parent_edge = None
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
    def _stranded_seeds(dist: np.ndarray, poison: np.ndarray,
                        delta: GraphDelta, csc
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Reset invalidated vertices to inf and collect what to offer.

        Returns ``(keys, offers)`` for :meth:`_settle`: each invalidated
        vertex's finite boundary values ``dist[u] + w`` over its
        in-neighbours, and ``dist[u] + w_new`` to the head of every
        improved edge, keyed by ``tree * num_nodes + vertex``.
        """
        num_trees, num_nodes = dist.shape
        flat = dist.reshape(-1)
        key_parts = [np.empty(0, dtype=np.int64)]
        offer_parts = [np.empty(0)]
        aff_keys = np.flatnonzero(poison.reshape(-1))
        if len(aff_keys):
            flat[aff_keys] = np.inf
            flat_idx, tree_rep, head_rep = _gather_adjacency(
                csc.indptr, aff_keys // num_nodes, aff_keys % num_nodes)
            base = tree_rep * num_nodes
            key_parts.append(base + head_rep)
            offer_parts.append(flat[base + csc.indices[flat_idx]]
                               + csc.data[flat_idx])
        if len(delta.improved_u):
            key_parts.append(
                (np.arange(num_trees)[:, np.newaxis] * num_nodes
                 + delta.improved_v).reshape(-1))
            offer_parts.append((dist[:, delta.improved_u]
                                + delta.improved_w).reshape(-1))
        keys = np.concatenate(key_parts)
        offers = np.concatenate(offer_parts)
        finite = offers != np.inf
        return keys[finite], offers[finite]

    # ------------------------------------------------------------------
    # Re-sum repair (dense reweights: the moving timeline)
    # ------------------------------------------------------------------

    def _reweight_trees(self, graph: csr_matrix, dst_nodes: np.ndarray,
                        coo: Tuple[np.ndarray, np.ndarray, np.ndarray],
                        delta: GraphDelta
                        ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Repair every cached tree when (nearly) every edge reweighted.

        Satellites moved: all weights changed a little, the trees
        barely.  Instead of invalidating anything,

        1. *re-sum* the old trees on the new weights (:func:`_resum`):
           achievable upper bounds on the new distances, exact wherever
           the old tree path is still a shortest path;
        2. *verify* every edge against them (:func:`_verify`), which
           yields the offers ``cand[u] + w < cand[v]`` that violate the
           fixed point and the vertices that gained a second tight
           in-edge (an exact float tie);
        3. *settle* the violating offers (:meth:`_settle`) and re-derive
           next hops (:meth:`_sparse_next_hops`) only where the settle
           lowered a distance, at ties, and where a vertex lost its
           last path.

        Returns None — solve from scratch — when step 2 finds more than
        ``MAX_VIOLATED_SHARE`` of the (tree, vertex) pairs violated.
        """
        assert self._prev_result is not None and self._prev_coo is not None
        prev = self._prev_result
        prev_rows, prev_cols, prev_data = self._prev_coo
        num_trees, num_nodes = prev.distance_m.shape
        if self._prev_parent_edge is None:
            self._prev_parent_edge = _parent_edges(
                prev.next_hop, prev_rows, prev_cols)
        # A vanished parent edge maps to -1, and so does "no parent".
        parent_edge = np.append(delta.old_to_new,
                                -1)[self._prev_parent_edge]
        roots = np.arange(num_trees) * num_nodes + dst_nodes
        cand, parent_count = _resum(
            prev.distance_m.reshape(-1), parent_edge, coo, roots,
            prev_data.min(initial=np.inf))
        cand = cand.reshape(num_trees, num_nodes)
        verdict = _verify(cand, coo, parent_count, prev.next_hop,
                          int(MAX_VIOLATED_SHARE * cand.size))
        if verdict is None:
            return None
        keys, offers, tie_keys = verdict
        self.inc_perf.edges_violated += len(keys)
        lowered = self._settle(cand, keys, offers, graph)
        next_hop = prev.next_hop.copy()
        # Vertices that had a next hop and are left without a path.
        lost = np.flatnonzero(cand.reshape(-1) == np.inf)
        lost = lost[next_hop.reshape(-1)[lost] != UNREACHABLE]
        rederived, parent_keys, parent_pos = self._sparse_next_hops(
            next_hop, cand, lowered, np.concatenate([tie_keys, lost]),
            graph, graph.tocsc())
        # Keep each vertex's parent edge (an index into ``coo``) next to
        # its next hop, for the next update's re-sum.
        csc_edge = csr_matrix(
            (np.arange(len(coo[0])), graph.indices, graph.indptr),
            shape=graph.shape).tocsc().data
        parent_edge[rederived] = -1
        parent_edge[parent_keys] = csc_edge[parent_pos]
        self._prev_parent_edge = parent_edge
        return cand, next_hop

    # ------------------------------------------------------------------
    # Shared by both repairs
    # ------------------------------------------------------------------

    @staticmethod
    def _settle(dist: np.ndarray, keys: np.ndarray, offers: np.ndarray,
                graph: csr_matrix) -> np.ndarray:
        """Drive ``dist`` (D, num_nodes) to the new graph's fixed point.

        ``dist`` holds achievable upper bounds (inf where nothing is
        known); ``offers[i]`` is a value ``dist[u] + w`` some in-edge
        offers vertex ``keys[i]`` (``tree * num_nodes + vertex``).
        Batched frontier rounds (all trees at once) relax the offers and
        then every out-edge of every lowered vertex until no distance
        decreases.  Each update is the same float64 ``dist[u] + w`` a
        from-scratch Dijkstra performs, and the fixed point of
        ``dist[v] = min_u(dist[u] + w(u, v))`` with positive weights is
        unique and relaxation-order independent, so the settled
        distances are bit-identical to from-scratch.

        Returns the sorted keys of every vertex whose distance it
        lowered.
        """
        num_nodes = dist.shape[1]
        flat = dist.reshape(-1)
        lowered = [np.empty(0, dtype=np.int64)]
        while len(keys):
            before = flat[keys]
            np.minimum.at(flat, keys, offers)
            frontier = _dedup(keys[flat[keys] < before])
            lowered.append(frontier)
            flat_idx, tree_rep, tail_rep = _gather_adjacency(
                graph.indptr, frontier // num_nodes, frontier % num_nodes)
            base = tree_rep * num_nodes
            offers = flat[base + tail_rep] + graph.data[flat_idx]
            keys = base + graph.indices[flat_idx]
        return _dedup(np.concatenate(lowered))

    @staticmethod
    def _sparse_next_hops(next_hop: np.ndarray, dist: np.ndarray,
                          moved_keys: np.ndarray, extra_keys: np.ndarray,
                          graph: csr_matrix, csc
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Re-derive ``next_hop`` in place, only where it can have moved.

        ``next_hop[v]`` is a pure function of ``dist[v]``, the in-edges
        of ``v``, and the in-neighbours' distances
        (:func:`~repro.routing.engine.canonical_next_hops`): the smallest
        tail id whose edge is tight.  Starting from the previous next
        hops and re-deriving exactly the vertices where one of those
        inputs changed — ``moved_keys`` (distance changed), their graph
        out-neighbours (an in-neighbour's distance moved) and whatever
        else the caller names in ``extra_keys`` (heads of changed edges,
        fresh ties) — therefore reproduces the full derivation
        bit-for-bit.

        Returns ``(rederived, parent_keys, parent_pos)``: every key
        looked at, the subset that has a next hop, and the position of
        each one's tight in-edge in ``csc.indices``.
        """
        num_nodes = dist.shape[1]
        flat = dist.reshape(-1)
        parts = [extra_keys]
        if len(moved_keys):
            parts.append(moved_keys)
            flat_idx, tree_rep, _ = _gather_adjacency(
                graph.indptr, moved_keys // num_nodes,
                moved_keys % num_nodes)
            parts.append(tree_rep * num_nodes + graph.indices[flat_idx])
        keys = _dedup(np.concatenate(parts))
        flat_idx, tree_rep, head_rep = _gather_adjacency(
            csc.indptr, keys // num_nodes, keys % num_nodes)
        base = tree_rep * num_nodes
        head_keys = base + head_rep
        head_d = flat[head_keys]
        tight = np.flatnonzero(
            (flat[base + csc.indices[flat_idx]] + csc.data[flat_idx]
             == head_d) & (head_d != np.inf))
        # A column's in-edges are stored by ascending tail id and the
        # gathered entries stay grouped by head, so the first tight
        # entry of a head is its canonical (smallest-id) next hop.
        heads = head_keys[tight]
        first = np.ones(len(heads), dtype=bool)
        np.not_equal(heads[1:], heads[:-1], out=first[1:])
        parent_keys = heads[first]
        parent_pos = flat_idx[tight[first]]
        hops = next_hop.reshape(-1)
        hops[keys] = UNREACHABLE
        hops[parent_keys] = csc.indices[parent_pos]
        return keys, parent_keys, parent_pos


def _parent_edges(next_hop: np.ndarray, rows: np.ndarray,
                  cols: np.ndarray) -> np.ndarray:
    """Flat (D * num_nodes,): each vertex's tree edge as an index into
    the canonical edge list ``(rows, cols)``, -1 where it has no next
    hop."""
    parent_edge = np.full(next_hop.shape, -1, dtype=np.int64)
    for hops, edge_of in zip(next_hop, parent_edge):
        edges = np.flatnonzero(hops[cols] == rows)
        edge_of[cols[edges]] = edges
    return parent_edge.reshape(-1)


def _resum(old_dist: np.ndarray, parent_edge: np.ndarray,
           coo: Tuple[np.ndarray, np.ndarray, np.ndarray],
           roots: np.ndarray, min_old_weight: float
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Lengths of the old tree paths under the new weights.

    ``cand[v] = cand[parent[v]] + w_new(parent[v], v)`` from the roots
    outwards — the very additions a from-scratch relaxation along that
    path performs, so every finite value is an achievable distance in
    the new graph (an upper bound on the true one), and inf where the
    path lost an edge.  Parents must be summed before children; a
    vertex's level ``floor(old_dist / (0.999 * min old weight))`` rises
    by at least one along every old tree edge, so one vectorised
    assignment per level does it with no depth bookkeeping carried
    between updates.  Correctness does not rest on the labelling: a
    vertex summed before its parent reads inf, and the verify pass
    hands it to the settle like any other violated vertex.

    Args:
        old_dist: Flat (D * num_nodes,) previous distances.
        parent_edge: Flat (D * num_nodes,) index into ``coo`` of each
            vertex's old tree edge, -1 without one (or if it vanished).
        coo: The new graph's canonical triplets.
        roots: (D,) flat keys of the tree roots.
        min_old_weight: Smallest weight of the previous graph.

    Returns:
        ``(cand, parent_count)``: the flat candidate distances, and
        per new edge the number of trees in which it is a tree edge
        carrying a finite candidate (there it is tight by construction).
    """
    rows, cols, data = coo
    order = np.flatnonzero(parent_edge >= 0)
    level = old_dist[order]
    # No tree is deeper than it has vertices: never more levels than
    # that, however small the smallest weight.
    num_nodes = len(old_dist) // len(roots)
    level /= max(0.999 * min_old_weight,
                 level.max(initial=0.0) / num_nodes)
    # Sort (level, key) pairs as single integers, then split them.
    level = level.astype(np.int32).astype(np.int64)
    level <<= 32
    order |= level
    del level
    order.sort()
    bounds = np.searchsorted(
        order, np.arange(int(order[-1] >> 32) + 2 if len(order) else 0)
        << 32).tolist()
    order &= 0xFFFFFFFF
    edge = parent_edge[order]
    weight = data[edge]
    parent = (rows - cols)[edge]
    parent += order
    parent_count = np.bincount(edge, minlength=len(data))
    del edge
    cand = np.full(len(old_dist), np.inf)
    cand[roots] = 0.0
    for low, high in zip(bounds[:-1], bounds[1:]):
        cand[order[low:high]] = cand[parent[low:high]] + weight[low:high]
    # Below a vanished edge (or summed out of turn) a vertex is still at
    # inf, and its tree edge is not tight there.
    stuck = parent_edge[np.flatnonzero(cand == np.inf)]
    parent_count -= np.bincount(stuck[stuck >= 0], minlength=len(data))
    return cand, parent_count


def _verify(cand: np.ndarray,
            coo: Tuple[np.ndarray, np.ndarray, np.ndarray],
            parent_count: np.ndarray, prev_next_hop: np.ndarray,
            max_violated: int
            ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Test re-summed distances against every edge of the new graph.

    Works on ``cand.T`` so one edge's D values are one contiguous row,
    in blocks of ``_VERIFY_BLOCK`` edges so the (block, D) temporaries
    stay in cache.  The first pass only counts, per edge, the trees with
    ``cand[u] + w <= cand[v]`` (``gap <= 0``; inf - inf is nan and
    counts as slack).  The old tree edges account for exactly
    ``parent_count`` of those, so an edge with no excess neither
    violates the fixed point nor ties anywhere; the few edges with an
    excess are then looked at tree by tree.

    Returns:
        ``(keys, offers, tie_keys)`` — the violating offers
        ``cand[u] + w < cand[v]`` keyed by ``tree * num_nodes + v``, and
        the keys of vertices with a tight in-edge other than their old
        tree edge — or None once more than ``max_violated`` offers
        violate.
    """
    rows, cols, data = coo
    num_trees, num_nodes = cand.shape
    cand_t = np.ascontiguousarray(cand.T)
    not_slack = np.empty(len(data), dtype=np.intp)
    weight = data[:, np.newaxis]
    with np.errstate(invalid="ignore"):
        for low in range(0, len(data), _VERIFY_BLOCK):
            high = low + _VERIFY_BLOCK
            gap = cand_t[rows[low:high]] + weight[low:high]
            gap -= cand_t[cols[low:high]]
            not_slack[low:high] = np.count_nonzero(gap <= 0.0, axis=1)
    suspects = np.flatnonzero(not_slack != parent_count)
    key_parts = [np.empty(0, dtype=np.int64)]
    offer_parts = [np.empty(0)]
    tie_parts = [np.empty(0, dtype=np.int64)]
    violated = 0
    for low in range(0, len(suspects), _VERIFY_BLOCK):
        edges = suspects[low:low + _VERIFY_BLOCK]
        tails, heads = rows[edges], cols[edges]
        at_head = cand_t[heads]
        offer = cand_t[tails] + data[edges, np.newaxis]
        edge_idx, tree_idx = np.nonzero(offer < at_head)
        violated += len(edge_idx)
        if violated > max_violated:
            return None
        key_parts.append(tree_idx * num_nodes + heads[edge_idx])
        offer_parts.append(offer[edge_idx, tree_idx])
        edge_idx, tree_idx = np.nonzero(
            (offer == at_head) & (at_head != np.inf)
            & (prev_next_hop[:, heads].T != tails[:, np.newaxis]))
        tie_parts.append(tree_idx * num_nodes + heads[edge_idx])
    return (np.concatenate(key_parts), np.concatenate(offer_parts),
            np.concatenate(tie_parts))


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
