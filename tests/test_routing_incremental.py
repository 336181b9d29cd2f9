"""Parity and unit tests for the incremental routing layer.

The contract under test (see :mod:`repro.routing.incremental`): whatever
path the :class:`IncrementalRouter` takes — snapshot cache, affected-
vertex repair, or large-delta fallback — its distances and next hops are
bit-identical to a from-scratch :class:`RoutingEngine` on the same
snapshot.  The parity classes force the repair path on *dense* deltas
(every ISL length changes between snapshots) with a huge fallback
fraction, and exercise the natural sparse-delta path with fault-style
masked topologies.
"""

import dataclasses

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.faults import FaultEvent, FaultSchedule
from repro.routing.engine import RoutingEngine
from repro.routing.incremental import IncrementalRouter, diff_graphs
from repro.topology.dynamic_state import (DynamicState, compute_pair_chunk,
                                          snapshot_times)
from repro.topology.network import LeoNetwork

DESTINATIONS = [1, 2, 4, 5]


def canonical_coo(num_nodes, edges):
    """Canonical (lexsorted, coalesced) COO arrays for directed edges."""
    rows, cols, data = zip(*[(u, v, w) for u, v, w in edges])
    coo = csr_matrix((np.asarray(data, dtype=np.float64), (rows, cols)),
                     shape=(num_nodes, num_nodes)).tocoo()
    return (coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data)


def assert_same_routing(scratch, incremental):
    assert scratch.dst_gids == incremental.dst_gids
    assert np.array_equal(scratch.distance_m, incremental.distance_m)
    assert np.array_equal(scratch.next_hop, incremental.next_hop)


def masked_variant(snapshot, drop_indices):
    """The snapshot with a few ISLs removed (positions unchanged)."""
    keep = np.ones(len(snapshot.isl_pairs), dtype=bool)
    keep[drop_indices] = False
    return dataclasses.replace(
        snapshot, isl_pairs=snapshot.isl_pairs[keep],
        isl_lengths_m=snapshot.isl_lengths_m[keep])


class TestDiffGraphs:
    EDGES = [(0, 1, 10.0), (1, 2, 20.0), (2, 0, 30.0), (2, 3, 40.0)]

    def test_identical_graphs_empty_delta(self):
        old = canonical_coo(4, self.EDGES)
        new = canonical_coo(4, self.EDGES)
        delta = diff_graphs(*old, *new, num_nodes=4)
        assert delta.num_changed == 0
        assert delta.change_fraction == 0.0
        assert len(delta.worsened_u) == 0
        assert len(delta.improved_u) == 0
        assert delta.num_edges == len(self.EDGES)

    def test_removed_edge_is_worsened(self):
        old = canonical_coo(4, self.EDGES)
        new = canonical_coo(4, self.EDGES[1:])
        delta = diff_graphs(*old, *new, num_nodes=4)
        assert delta.num_changed == 1
        assert list(zip(delta.worsened_u, delta.worsened_v)) == [(0, 1)]
        assert len(delta.improved_u) == 0

    def test_added_edge_is_improved(self):
        old = canonical_coo(4, self.EDGES)
        new = canonical_coo(4, self.EDGES + [(3, 0, 5.0)])
        delta = diff_graphs(*old, *new, num_nodes=4)
        assert delta.num_changed == 1
        assert list(zip(delta.improved_u, delta.improved_v)) == [(3, 0)]
        assert delta.improved_w.tolist() == [5.0]
        assert len(delta.worsened_u) == 0

    def test_reweights_split_by_direction(self):
        old = canonical_coo(4, self.EDGES)
        reweighted = [(0, 1, 15.0), (1, 2, 20.0), (2, 0, 25.0),
                      (2, 3, 40.0)]
        new = canonical_coo(4, reweighted)
        delta = diff_graphs(*old, *new, num_nodes=4)
        assert delta.num_changed == 2
        assert list(zip(delta.worsened_u, delta.worsened_v)) == [(0, 1)]
        assert list(zip(delta.improved_u, delta.improved_v)) == [(2, 0)]
        assert delta.improved_w.tolist() == [25.0]
        assert delta.change_fraction == pytest.approx(0.5)


class TestIncrementalParity:
    def test_dense_deltas_forced_through_repair(self, small_network):
        # Every ISL/GSL length changes as satellites move; a huge
        # fallback fraction still forces the affected-vertex repair.
        scratch = RoutingEngine(small_network)
        router = IncrementalRouter(small_network, fallback_fraction=2.0)
        for t in np.arange(0.0, 6.0, 1.0):
            snapshot = small_network.snapshot(float(t))
            assert_same_routing(scratch.route_to_many(snapshot, DESTINATIONS),
                                router.route_to_many(snapshot, DESTINATIONS))
        assert router.inc_perf.repairs == 5
        assert router.inc_perf.full_solves == 1  # the t=0 warm-up

    def test_dense_deltas_fall_back_by_default(self, small_network):
        scratch = RoutingEngine(small_network)
        router = IncrementalRouter(small_network)
        for t in np.arange(0.0, 4.0, 1.0):
            snapshot = small_network.snapshot(float(t))
            assert_same_routing(scratch.route_to_many(snapshot, DESTINATIONS),
                                router.route_to_many(snapshot, DESTINATIONS))
        assert router.inc_perf.repairs == 0
        assert router.inc_perf.fallbacks_large_delta == 3

    def test_sparse_deltas_repair(self, small_network):
        # Fault-style deltas: same positions, a few ISLs masked in and
        # out per step — exactly the sparse case repair exists for.
        rng = np.random.default_rng(42)
        base = small_network.snapshot(0.0)
        router = IncrementalRouter(small_network)
        router.route_to_many(base, DESTINATIONS)
        for _ in range(12):
            drop = rng.choice(len(base.isl_pairs), size=4, replace=False)
            snapshot = masked_variant(base, drop)
            assert_same_routing(
                RoutingEngine(small_network).route_to_many(
                    snapshot, DESTINATIONS),
                router.route_to_many(snapshot, DESTINATIONS))
        assert router.inc_perf.repairs == 12
        assert router.inc_perf.fallbacks_large_delta == 0
        assert router.inc_perf.vertices_invalidated > 0

    def test_fault_schedule_parity(self, small_constellation,
                                   small_stations):
        # Outage waves switching on and off between snapshots, on top of
        # orbital motion; repair forced throughout.
        faults = FaultSchedule([
            FaultEvent.satellite_outage(12, 1.0, 3.0),
            FaultEvent.satellite_outage(55, 2.0, 5.0),
            FaultEvent.gsl_cut(2, 1.5, 4.0),
            FaultEvent.isl_cut(40, 41, 0.5, 4.5),
        ])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        scratch = RoutingEngine(network)
        router = IncrementalRouter(network, fallback_fraction=2.0)
        for t in np.arange(0.0, 6.0, 0.5):
            snapshot = network.snapshot(float(t))
            assert_same_routing(scratch.route_to_many(snapshot, DESTINATIONS),
                                router.route_to_many(snapshot, DESTINATIONS))
        assert router.inc_perf.repairs > 0

    def test_snapshot_cache_hit(self, small_network):
        router = IncrementalRouter(small_network)
        snapshot = small_network.snapshot(0.0)
        first = router.route_to_many(snapshot, DESTINATIONS)
        second = router.route_to_many(snapshot, DESTINATIONS)
        assert second is first
        assert router.inc_perf.snapshot_cache_hits == 1

    def test_destination_change_forces_full_solve(self, small_network):
        router = IncrementalRouter(small_network, fallback_fraction=2.0)
        snapshot = small_network.snapshot(0.0)
        router.route_to_many(snapshot, [1, 2])
        router.route_to_many(small_network.snapshot(1.0), [1, 3])
        assert router.inc_perf.full_solves == 2
        assert router.inc_perf.repairs == 0

    def test_path_queries_match(self, small_network):
        scratch = RoutingEngine(small_network)
        router = IncrementalRouter(small_network, fallback_fraction=2.0)
        for t in (0.0, 1.0, 2.0):
            snapshot = small_network.snapshot(t)
            expected = scratch.route_to_many(snapshot, DESTINATIONS)
            repaired = router.route_to_many(snapshot, DESTINATIONS)
            for dst in DESTINATIONS:
                for src in range(6):
                    if src == dst:
                        continue
                    assert scratch.path_and_distance_via(
                        expected.routing_for(dst), snapshot, src
                    ) == router.path_and_distance_via(
                        repaired.routing_for(dst), snapshot, src)

    def test_validation(self, small_network):
        with pytest.raises(ValueError):
            IncrementalRouter(small_network, fallback_fraction=-0.1)


class TestTimelineIntegration:
    PAIRS = [(0, 4), (1, 5), (3, 2)]

    def _faulted_network(self, constellation, stations):
        faults = FaultSchedule([
            FaultEvent.satellite_outage(7, 1.0, 4.0),
            FaultEvent.gsl_cut(4, 2.0, 5.0),
        ])
        return LeoNetwork(constellation, stations,
                          min_elevation_deg=10.0, faults=faults)

    def test_incremental_equals_scratch_timelines(self, small_constellation,
                                                  small_stations):
        network = self._faulted_network(small_constellation, small_stations)
        incremental = DynamicState(network, self.PAIRS, duration_s=6.0,
                                   step_s=1.0).compute()
        scratch = compute_pair_chunk(network, self.PAIRS,
                                     snapshot_times(6.0, 1.0),
                                     engine=RoutingEngine(network))
        for pair in self.PAIRS:
            distances, paths = scratch[pair]
            assert np.array_equal(incremental[pair].distances_m, distances)
            assert incremental[pair].paths == paths

    def test_workers_parity(self, small_constellation, small_stations):
        network = self._faulted_network(small_constellation, small_stations)
        state = DynamicState(network, self.PAIRS, duration_s=6.0,
                             step_s=1.0)
        serial = state.compute()
        parallel = state.compute(workers=2)
        for pair in self.PAIRS:
            assert np.array_equal(serial[pair].distances_m,
                                  parallel[pair].distances_m)
            assert serial[pair].paths == parallel[pair].paths

    def test_unknown_routing_mode_rejected(self, small_network):
        # One timeline router, no switch: the ``routing=`` option is gone.
        with pytest.raises(TypeError):
            DynamicState(small_network, self.PAIRS, duration_s=2.0,
                         step_s=1.0, routing="magic")
