"""Parity and unit tests for the incremental routing layer.

The contract under test (see :mod:`repro.routing.incremental`): whatever
path the :class:`IncrementalRouter` takes — snapshot cache, affected-
vertex repair, re-sum repair, or full solve — its distances and next
hops are bit-identical to a from-scratch :class:`RoutingEngine` on the
same snapshot.  ``TestIncrementalParity`` forces the affected-vertex
path on *dense* deltas (every ISL length changes between snapshots)
by patching ``SPARSE_DELTA_SHARE`` and exercises its natural sparse-delta
case with fault-style masked topologies; ``TestReweightRepair`` walks
moving timelines through the default router, where dense deltas take
the re-sum repair.
"""

import dataclasses
import weakref

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.faults import FaultEvent, FaultSchedule
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation, relay_grid_between
from repro.routing import incremental
from repro.routing.engine import UNREACHABLE, RoutingEngine
from repro.routing.incremental import (IncrementalPerfCounters,
                                       IncrementalRouter, diff_graphs)
from repro.sweep.engine import sweep_timelines
from repro.topology.dynamic_state import compute_pair_chunk, snapshot_times
from repro.topology.isl import no_isls
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


def walk(network, router, times, destinations=DESTINATIONS):
    """Route every snapshot through ``router`` and a fresh engine;
    assert they agree and return the router's results."""
    results = []
    for time_s in times:
        snapshot = network.snapshot(float(time_s))
        results.append(router.route_to_many(snapshot, destinations))
        assert_same_routing(
            RoutingEngine(network).route_to_many(snapshot, destinations),
            results[-1])
    return results


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
        assert delta.old_to_new.tolist() == [-1, 0, 1, 2]

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


@pytest.fixture
def affected_vertex_always(monkeypatch):
    """Every delta counts as sparse: the affected-vertex repair runs even
    where satellites moved (correct, just slow on dense deltas)."""
    monkeypatch.setattr("repro.routing.incremental.SPARSE_DELTA_SHARE", 2.0)


class TestIncrementalParity:
    def test_dense_deltas_forced_through_repair(self, small_network,
                                                affected_vertex_always):
        # Every ISL/GSL length changes as satellites move.
        scratch = RoutingEngine(small_network)
        router = IncrementalRouter(small_network)
        for t in np.arange(0.0, 6.0, 1.0):
            snapshot = small_network.snapshot(float(t))
            assert_same_routing(scratch.route_to_many(snapshot, DESTINATIONS),
                                router.route_to_many(snapshot, DESTINATIONS))
        assert router.inc_perf.repairs == 5
        assert router.inc_perf.full_solves == 1  # the t=0 warm-up

    def test_dense_deltas_are_repaired_by_default(self, small_network):
        router = IncrementalRouter(small_network)
        walk(small_network, router, np.arange(0.0, 4.0, 1.0))
        counters = router.inc_perf
        # Each of the three dense deltas is re-summed; one whose verify
        # pass finds too many violations (the symmetric t = 0 start can)
        # ends in a full solve and says so.
        assert counters.reweight_repairs > 0
        assert (counters.reweight_repairs
                + counters.fallbacks_large_delta) == 3
        assert counters.repairs == counters.reweight_repairs
        assert counters.full_solves == 1 + counters.fallbacks_large_delta
        # scipy runs only for full solves; every update computes trees.
        assert router.perf.dijkstra_calls == counters.full_solves
        assert router.perf.trees_computed == 4 * len(DESTINATIONS)
        assert counters.vertices_invalidated == 0

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
                                   small_stations, affected_vertex_always):
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
        router = IncrementalRouter(network)
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

    def test_same_set_in_another_order(self, small_network):
        # The memory is keyed by destination set: a reordered request is
        # the remembered rows gathered (same snapshot) or permuted and
        # repaired (next snapshot), never a solve.
        router = IncrementalRouter(small_network)
        snapshot = small_network.snapshot(0.0)
        router.route_to_many(snapshot, DESTINATIONS)
        reverse = DESTINATIONS[::-1]
        hit = router.route_to_many(snapshot, reverse)
        assert router.inc_perf.snapshot_cache_hits == 1
        assert router.inc_perf.full_solves == 1
        assert_same_routing(
            RoutingEngine(small_network).route_to_many(snapshot, reverse), hit)
        third = [DESTINATIONS[i] for i in (2, 0, 3, 1)]
        later = masked_variant(snapshot, [3, 17, 40])
        repaired = router.route_to_many(later, third)
        counters = router.inc_perf
        assert (counters.repairs, counters.full_solves,
                counters.destination_changes) == (1, 1, 0)
        assert_same_routing(
            RoutingEngine(small_network).route_to_many(later, third),
            repaired)

    def test_reordered_set_takes_the_resum_repair(self, small_network):
        # Two dense deltas in fresh orders: the second permutes the tree
        # edges the first re-sum kept.
        router = IncrementalRouter(small_network)
        orders = [DESTINATIONS, DESTINATIONS[::-1], [4, 1, 5, 2]]
        for time_s, order in zip((3.0, 4.0, 5.0), orders):
            snapshot = small_network.snapshot(time_s)
            assert_same_routing(
                RoutingEngine(small_network).route_to_many(snapshot, order),
                router.route_to_many(snapshot, order))
        counters = router.inc_perf
        assert counters.reweight_repairs == 2
        assert counters.full_solves == 1
        assert counters.destination_changes == 0

    def test_destination_change_forces_full_solve(self, small_network,
                                                  affected_vertex_always):
        router = IncrementalRouter(small_network)
        snapshot = small_network.snapshot(0.0)
        router.route_to_many(snapshot, [1, 2])
        router.route_to_many(small_network.snapshot(1.0), [1, 3])
        assert router.inc_perf.full_solves == 2
        assert router.inc_perf.repairs == 0
        assert router.inc_perf.destination_changes == 1
        assert router.inc_perf.fallbacks_large_delta == 0

    def test_counters_summary_names_every_field(self):
        counters = IncrementalPerfCounters(reweight_repairs=2,
                                           edges_violated=7)
        summary = counters.as_dict()
        assert set(summary) == {
            "full_solves", "repairs", "reweight_repairs",
            "fallbacks_large_delta", "destination_changes",
            "snapshot_cache_hits", "edges_changed",
            "vertices_invalidated", "edges_violated", "repair_wall_s"}
        assert summary["reweight_repairs"] == 2
        assert summary["edges_violated"] == 7

    def test_path_queries_match(self, small_network,
                                affected_vertex_always):
        scratch = RoutingEngine(small_network)
        router = IncrementalRouter(small_network)
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


class TestReweightRepair:
    """Dense deltas through the default router: re-sum, verify, settle."""

    @pytest.mark.parametrize("step_s", [0.1, 1.0, 5.0])
    def test_moving_timeline(self, small_network, step_s):
        router = IncrementalRouter(small_network)
        walk(small_network, router, 3.0 + step_s * np.arange(10))
        assert router.inc_perf.reweight_repairs > 0
        assert router.inc_perf.edges_violated > 0

    def test_symmetric_start_with_exact_ties(self, small_network):
        # At t = 0 a +Grid shell is symmetric: intra-plane ISLs are
        # bit-equal and many vertices have several tight in-edges.  One
        # second later the ties break every which way.
        engine = RoutingEngine(small_network)
        snapshot = small_network.snapshot(0.0)
        routing = engine.route_to_many(snapshot, DESTINATIONS)
        _, _, (rows, cols, data) = engine.destination_graph_coo(
            snapshot, DESTINATIONS)
        tight = sum(
            np.count_nonzero((row[rows] + data == row[cols])
                             & np.isfinite(row[cols]))
            for row in routing.distance_m)
        # More tight edges than vertices with a next hop: exact ties.
        assert tight >= 10 + np.count_nonzero(
            routing.next_hop != UNREACHABLE)
        router = IncrementalRouter(small_network)
        walk(small_network, router, [0.0, 1.0, 2.0])
        assert (router.inc_perf.reweight_repairs
                + router.inc_perf.fallbacks_large_delta) == 2

    def test_destination_without_visible_satellite(self, small_constellation,
                                                   small_stations):
        # A polar station never sees the 53-degree shell: its whole tree
        # is at inf, where inf + w == inf must not read as a tight edge.
        pole = GroundStation(gid=6, name="Pole",
                             position=GeodeticPosition(89.0, 0.0, 0.0))
        network = LeoNetwork(small_constellation, small_stations + [pole],
                             min_elevation_deg=10.0)
        router = IncrementalRouter(network)
        results = walk(network, router, 3.0 + np.arange(6),
                       destinations=[1, 6, 4])
        for result in results:
            row = result.distance_m[1]
            assert np.count_nonzero(np.isfinite(row)) == 1  # the root
            assert (result.next_hop[1] == UNREACHABLE).all()
        assert router.inc_perf.reweight_repairs == 5

    def test_faults_begin_and_end_mid_timeline(self, small_constellation,
                                               small_stations):
        # Vanished tree edges, subtrees that start from inf, vertices
        # that lose their last path and find it again.
        faults = FaultSchedule([
            FaultEvent.satellite_outage(12, 2.0, 5.0),
            FaultEvent.satellite_outage(55, 3.0, 7.0),
            FaultEvent.satellite_outage(56, 3.0, 7.0),
            FaultEvent.gsl_cut(2, 2.5, 6.0),
            FaultEvent.isl_cut(40, 41, 1.5, 6.5),
        ])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        router = IncrementalRouter(network)
        results = walk(network, router, np.arange(0.0, 9.0, 0.5),
                       destinations=[1, 2, 4, 5])
        assert router.inc_perf.reweight_repairs > 0
        before, during, after = results[3], results[5], results[-1]
        assert (before.next_hop[:, 12] != UNREACHABLE).all()
        assert (during.next_hop[:, 12] == UNREACHABLE).all()
        assert (after.next_hop[:, 12] != UNREACHABLE).all()
        # Station 2 cut off: its own tree is just the root.
        cut = results[8]
        assert (cut.next_hop[1] == UNREACHABLE).all()

    def test_bent_pipe_relays(self, small_constellation, small_stations):
        # No ISLs: every multi-hop path alternates satellites and relay
        # stations, and relays are destinations too (their GSLs are
        # two-way transit edges, not one-way destination edges).
        relays = relay_grid_between(
            small_stations[5].position, small_stations[1].position,
            rows=4, columns=4, margin_deg=5.0, first_gid=6)
        network = LeoNetwork(small_constellation, small_stations + relays,
                             min_elevation_deg=10.0, isl_builder=no_isls)
        destinations = [1, 5, 6, 11, 21]
        router = IncrementalRouter(network)
        results = walk(network, router, 100.0 + 2.0 * np.arange(8),
                       destinations=destinations)
        assert router.inc_perf.reweight_repairs > 0
        path = router.paths_and_distances(
            results[-1], network.snapshot(114.0), [(5, 1)])[0][0]
        relays = [node for node in path[1:-1]
                  if node >= network.num_satellites]
        assert len(relays) >= 2

    def test_long_steps_give_up_and_say_so(self, small_network):
        router = IncrementalRouter(small_network)
        walk(small_network, router, 3.0 + 15.0 * np.arange(8))
        counters = router.inc_perf
        assert counters.fallbacks_large_delta > 0
        assert (counters.reweight_repairs
                + counters.fallbacks_large_delta) == 7
        assert counters.full_solves == 1 + counters.fallbacks_large_delta
        assert router.perf.dijkstra_calls == counters.full_solves

    def test_previous_result_is_not_mutated(self, small_network):
        router = IncrementalRouter(small_network)
        first = router.route_to_many(small_network.snapshot(3.0),
                                     DESTINATIONS)
        distance_view = first.routing_for(DESTINATIONS[0]).distance_m
        distances = first.distance_m.copy()
        next_hops = first.next_hop.copy()
        second = router.route_to_many(small_network.snapshot(4.0),
                                      DESTINATIONS)
        assert router.inc_perf.reweight_repairs == 1
        assert second.distance_m is not first.distance_m
        assert not np.array_equal(second.distance_m, distances)
        assert np.array_equal(first.distance_m, distances)
        assert np.array_equal(first.next_hop, next_hops)
        assert np.array_equal(distance_view, distances[0])

    @pytest.mark.parametrize("reverse", [False, True])
    def test_resum_lets_go_of_the_remembered_update(self, small_network,
                                                    monkeypatch, reverse):
        # With no caller holding the old result, its distances are gone
        # before the re-sum's own (D, num_nodes) arrays exist — in the
        # remembered order and in another one.
        router = IncrementalRouter(small_network)
        old = weakref.ref(router.route_to_many(
            small_network.snapshot(3.0), DESTINATIONS).distance_m)
        freed = []
        resum = incremental._resum

        def spy(*args):
            freed.append(old() is None)
            return resum(*args)

        monkeypatch.setattr(incremental, "_resum", spy)
        router.route_to_many(small_network.snapshot(4.0),
                             DESTINATIONS[::-1] if reverse else DESTINATIONS)
        assert freed == [True]

    def test_mixed_sparse_and_dense_deltas(self, small_network):
        # The two repairs alternate on one router: the re-sum repair's
        # parent-edge memo must not survive an affected-vertex repair.
        rng = np.random.default_rng(3)
        router = IncrementalRouter(small_network)
        for t in (3.0, 4.0, 5.0, 6.0):
            moved = small_network.snapshot(t)
            drop = rng.choice(len(moved.isl_pairs), size=3, replace=False)
            for snapshot in (moved, masked_variant(moved, drop)):
                assert_same_routing(
                    RoutingEngine(small_network).route_to_many(
                        snapshot, DESTINATIONS),
                    router.route_to_many(snapshot, DESTINATIONS))
        counters = router.inc_perf
        assert counters.reweight_repairs > 0
        assert counters.repairs > counters.reweight_repairs


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
        incremental = sweep_timelines(network, self.PAIRS,
                                      snapshot_times(6.0, 1.0))
        pairs, distances, paths = compute_pair_chunk(
            network, self.PAIRS, snapshot_times(6.0, 1.0),
            engine=RoutingEngine(network))
        for row, pair in enumerate(pairs):
            assert np.array_equal(incremental[pair].distances_m,
                                  distances[row])
            assert incremental[pair].paths == [step[row] for step in paths]

    def test_workers_parity(self, small_constellation, small_stations):
        network = self._faulted_network(small_constellation, small_stations)
        times = snapshot_times(6.0, 1.0)
        serial = sweep_timelines(network, self.PAIRS, times)
        parallel = sweep_timelines(network, self.PAIRS, times, workers=2)
        for pair in self.PAIRS:
            assert np.array_equal(serial[pair].distances_m,
                                  parallel[pair].distances_m)
            assert serial[pair].paths == parallel[pair].paths

    def test_unknown_routing_mode_rejected(self, small_network):
        # One timeline router, no switch: the ``routing=`` option is gone.
        with pytest.raises(TypeError):
            sweep_timelines(small_network, self.PAIRS,
                            snapshot_times(2.0, 1.0), routing="magic")
