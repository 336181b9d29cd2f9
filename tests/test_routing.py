"""Tests for the shortest-path routing engine."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constellations.builder import Constellation
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation, relay_grid_between
from repro.orbits.shell import Shell
from repro.routing.engine import UNREACHABLE, RoutingEngine
from repro.sweep.engine import sweep_timelines
from repro.topology.gsl import GslEdges, GslPolicy
from repro.topology.dynamic_state import (
    PairTimeline,
    count_path_changes,
    satellites_of_path,
    snapshot_times,
)
from repro.topology.network import LeoNetwork

from _routing_oracle import (scalar_path_and_distance,
                             station_loop_gsl_edge_arrays)


def _relay_grid(a, b, rows, columns):
    """``relay_grid_between`` over the endpoints' box widened by a 5°
    margin (2° here, 3° in the product), relay gids from 6 on."""
    low = GeodeticPosition(min(a.latitude_deg, b.latitude_deg) - 2.0,
                           min(a.longitude_deg, b.longitude_deg) - 2.0)
    high = GeodeticPosition(max(a.latitude_deg, b.latitude_deg) + 2.0,
                            max(a.longitude_deg, b.longitude_deg) + 2.0)
    return [dataclasses.replace(relay, gid=6 + relay.gid)
            for relay in relay_grid_between(low, high, rows, columns)]


@pytest.fixture
def engine(small_network) -> RoutingEngine:
    return RoutingEngine(small_network)


class TestRouteTo:
    def test_distances_positive_and_finite_for_satellites(
            self, small_network, engine):
        snap = small_network.snapshot(0.0)
        routing = engine.route_to_many(snap, [0]).routing_for(0)
        sat_distances = routing.distance_m[:small_network.num_satellites]
        assert np.isfinite(sat_distances).all()
        assert (sat_distances > 0).all()

    def test_next_hops_walk_to_destination(self, small_network, engine):
        snap = small_network.snapshot(0.0)
        routing = engine.route_to_many(snap, [2]).routing_for(2)
        dst_node = snap.gs_node_id(2)
        for sat in range(0, small_network.num_satellites, 7):
            current = sat
            for _ in range(small_network.num_nodes):
                nxt = routing.next_hop[current]
                if nxt == dst_node:
                    break
                assert nxt != UNREACHABLE
                current = int(nxt)
            else:
                pytest.fail(f"walk from satellite {sat} never reached dst")

    def test_distance_decreases_along_next_hops(self, small_network, engine):
        snap = small_network.snapshot(0.0)
        routing = engine.route_to_many(snap, [1]).routing_for(1)
        for sat in range(small_network.num_satellites):
            nxt = int(routing.next_hop[sat])
            if nxt == UNREACHABLE or nxt == routing.dst_node:
                continue
            assert routing.distance_m[nxt] < routing.distance_m[sat]

    def test_other_gs_nodes_not_transit(self, small_network, engine):
        """Paths never route through a third (non-relay) ground station."""
        snap = small_network.snapshot(0.0)
        for dst in range(6):
            routing = engine.route_to_many(snap, [dst]).routing_for(dst)
            for src in range(6):
                if src == dst:
                    continue
                path, _ = engine.path_and_distance_via(routing, snap, src)
                if path is None:
                    continue
                for node in path[1:-1]:
                    assert node < small_network.num_satellites


class TestBatchedRouting:
    def test_route_to_many_matches_route_to(self, small_network, engine):
        """The batched trees are bit-identical to per-destination ones."""
        snap = small_network.snapshot(0.0)
        destinations = list(range(6))
        multi = engine.route_to_many(snap, destinations)
        for dst_gid in destinations:
            single = engine.route_to_many(
                snap, [dst_gid]).routing_for(dst_gid)
            batched = multi.routing_for(dst_gid)
            assert batched.dst_node == single.dst_node
            np.testing.assert_array_equal(batched.distance_m,
                                          single.distance_m)
            np.testing.assert_array_equal(batched.next_hop, single.next_hop)

    def test_trees_isolated_from_other_destinations(self, small_network,
                                                    engine):
        """Destination GSLs are directed: tree A never transits GS B even
        though B's edges sit in the same batched matrix."""
        snap = small_network.snapshot(0.0)
        multi = engine.route_to_many(snap, list(range(6)))
        for dst_gid in range(6):
            row = multi.routing_for(dst_gid)
            for other in range(6):
                if other == dst_gid:
                    continue
                assert row.distance_m[snap.gs_node_id(other)] == np.inf

    def test_duplicate_destinations_deduplicated(self, small_network,
                                                 engine):
        # A request is its destination set: rows ascending by gid, and a
        # repeat of the set in any order, with duplicates, on the same
        # snapshot is the remembered answer itself, lent once more.
        snap = small_network.snapshot(0.0)
        multi = engine.route_to_many(snap, [3, 1, 3, 1, 3])
        assert multi.dst_gids == (1, 3)
        assert multi.distance_m.shape[0] == 2
        for row, gid in enumerate(multi.dst_gids):
            alone = RoutingEngine(small_network).route_to_many(snap, [gid])
            assert np.array_equal(alone.distance_m[0], multi.distance_m[row])
            assert np.array_equal(alone.next_hop[0], multi.next_hop[row])
        assert engine.route_to_many(snap, [1, 3, 3, 1]) is multi
        assert engine._loans == 2
        assert engine.perf.dijkstra_calls == 1
        assert engine.perf.trees_computed == 2
        # Another set, or the same set on another snapshot, is solved.
        assert engine.route_to_many(snap, [1]) is not multi
        assert engine.route_to_many(small_network.snapshot(1.0),
                                    [3, 1]) is not multi
        assert engine.perf.dijkstra_calls == 3

    def test_duplicated_edge_rejected(self, small_network, engine):
        # scipy would add the lengths of a doubled edge, where two
        # parallel links are as long as the shorter one.  The topology
        # never builds one; the engine refuses it and names it.
        snap = small_network.snapshot(0.0)
        doubled = dataclasses.replace(
            snap, isl_pairs=np.vstack([snap.isl_pairs, snap.isl_pairs[:1]]),
            isl_lengths_m=np.append(snap.isl_lengths_m,
                                    snap.isl_lengths_m[0]))
        low, high = sorted(snap.isl_pairs[0].tolist())
        with pytest.raises(ValueError,
                           match=f"edge {low} -> {high} appears twice"):
            engine.route_to_many(doubled, [1])

    def test_empty_destinations_rejected(self, small_network, engine):
        with pytest.raises(ValueError):
            engine.route_to_many(small_network.snapshot(0.0), [])

    def test_source_ingress_many_matches_scalar(self, small_network,
                                                engine):
        """The batched ingress table picks the scalar rule's satellite
        and total for every (source, destination) pair — a disconnected
        source and one whose two GSLs tie exactly included."""
        snap = small_network.snapshot(0.0)
        multi = engine.route_to_many(snap, [1, 2, 4])
        # Sources are not destinations here, so their GSLs can change
        # without touching the trees.  Source 0 loses its GSLs; source 3
        # gets two whose totals toward destination 1 are bit-equal
        # (a + b == b + a), the larger satellite id in the first slot.
        to_dst = multi.routing_for(1).distance_m
        high, low = 57, 12
        snap = dataclasses.replace(snap, gsl_edges={
            **snap.gsl_edges,
            0: GslEdges(0, np.empty(0, dtype=np.int64), np.empty(0)),
            3: GslEdges(3, np.array([high, low]),
                        np.array([to_dst[low], to_dst[high]]))})
        pairs = [(src, dst) for src in range(6) for dst in multi.dst_gids]
        rows, ingress, totals = multi.pair_ingress(
            snap, *np.array(pairs, dtype=np.int64).T)
        for i, (src_gid, dst_gid) in enumerate(pairs):
            assert multi.dst_gids[rows[i]] == dst_gid
            expected_sat, expected_total = multi.routing_for(
                dst_gid).source_ingress(snap.gsl_edges[src_gid])
            assert totals[i] == expected_total
            if expected_sat is not None:
                assert ingress[i] == expected_sat
        assert np.isinf(totals[[i for i, (src, _) in enumerate(pairs)
                                if src == 0]]).all()
        tied = pairs.index((3, 1))
        assert totals[tied] == to_dst[low] + to_dst[high]
        assert ingress[tied] == high

    def test_transit_cache_reused_within_snapshot(self, small_network,
                                                  engine):
        snap = small_network.snapshot(0.0)
        engine.route_to_many(snap, [0, 1])
        engine.route_to_many(snap, [2, 3])
        assert engine.perf.transit_builds == 1
        assert engine.perf.transit_cache_hits == 1
        assert engine.perf.trees_computed == 4
        assert engine.perf.dijkstra_calls == 2

    def test_transit_cache_invalidated_by_new_snapshot(self, small_network,
                                                       engine):
        engine.route_to_many(small_network.snapshot(0.0), [0])
        engine.route_to_many(small_network.snapshot(1.0), [0])
        assert engine.perf.transit_builds == 2
        assert engine.perf.csr_rebuilds_avoided == 0

    def test_paths_many_matches_path(self, small_network, engine):
        snap = small_network.snapshot(0.0)
        pairs = [(0, 3), (1, 4), (2, 5), (5, 2)]
        batched = engine.paths_many(snap, pairs)
        for (src, dst), path in zip(pairs, batched):
            assert path == engine.path(snap, src, dst)

    def test_paths_many_empty(self, small_network, engine):
        assert engine.paths_many(small_network.snapshot(0.0), []) == []


class TestStationEdgeGather:
    """``gsl_edge_arrays`` equals the per-station loop it replaced,
    arrays and dtypes."""

    @staticmethod
    def assert_gathers_match(snapshot, gids):
        expected = station_loop_gsl_edge_arrays(snapshot, gids)
        for want, got in zip(expected, snapshot.gsl_edge_arrays(gids)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_stations_in_any_order(self, small_network):
        snap = small_network.snapshot(0.0)
        for gids in ([], [3], list(range(6)), [5, 0, 2]):
            self.assert_gathers_match(snap, gids)

    def test_disconnected_station(self, small_constellation, small_stations):
        # A polar station never sees the 53-degree shell.
        pole = GroundStation(gid=6, name="Pole",
                             position=GeodeticPosition(89.0, 0.0, 0.0))
        network = LeoNetwork(small_constellation, small_stations + [pole],
                             min_elevation_deg=10.0)
        snap = network.snapshot(0.0)
        assert not snap.gsl_edges[6].is_connected
        for gids in ([6], [1, 6, 4], [6, 0]):
            self.assert_gathers_match(snap, gids)

    def test_relay_gids(self, small_constellation, small_stations):
        relays = _relay_grid(small_stations[5].position,
                             small_stations[1].position, rows=3, columns=3)
        network = LeoNetwork(small_constellation, small_stations + relays,
                             min_elevation_deg=10.0, isl_builder="none")
        snap = network.snapshot(100.0)
        relay_gids = sorted(snap.relay_gids)
        assert relay_gids
        self.assert_gathers_match(snap, relay_gids)
        self.assert_gathers_match(snap, [1] + relay_gids[::-1] + [5])

    def test_nearest_only(self, small_constellation, small_stations):
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0,
                             gsl_policy=GslPolicy.NEAREST_ONLY)
        snap = network.snapshot(0.0)
        self.assert_gathers_match(snap, [4, 0, 5, 1])

    def test_gid_out_of_range_rejected(self, small_network):
        with pytest.raises(ValueError):
            small_network.snapshot(0.0).gsl_edge_arrays([0, 6])


class TestPairQueries:
    def test_path_endpoints(self, small_network, engine):
        snap = small_network.snapshot(0.0)
        path = engine.path(snap, 0, 3)
        assert path is not None
        assert path[0] == snap.gs_node_id(0)
        assert path[-1] == snap.gs_node_id(3)

    def test_path_edges_exist(self, small_network, engine):
        """Every hop of a returned path is an actual edge of the graph."""
        snap = small_network.snapshot(0.0)
        graph = snap.to_networkx()
        path = engine.path(snap, 1, 4)
        assert path is not None
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)

    def test_distance_matches_path_length(self, small_network, engine):
        snap = small_network.snapshot(0.0)
        graph = snap.to_networkx()
        path = engine.path(snap, 0, 5)
        distance = engine.pair_distance_m(snap, 0, 5)
        total = sum(graph[a][b]["distance_m"] for a, b in zip(path, path[1:]))
        assert distance == pytest.approx(total, rel=1e-9)

    def test_distance_matches_networkx_shortest_path(self, small_network,
                                                     engine):
        """Cross-validation against networkx Dijkstra on the same graph,
        with other GS nodes removed (they cannot transit)."""
        import networkx as nx
        snap = small_network.snapshot(0.0)
        for src, dst in [(0, 3), (1, 5), (2, 4)]:
            graph = snap.to_networkx()
            for gid in range(6):
                if gid not in (src, dst):
                    graph.remove_node(snap.gs_node_id(gid))
            expected = nx.shortest_path_length(
                graph, snap.gs_node_id(src), snap.gs_node_id(dst),
                weight="distance_m")
            actual = engine.pair_distance_m(snap, src, dst)
            assert actual == pytest.approx(expected, rel=1e-9)

    def test_same_gid_distance_is_zero(self, small_network, engine):
        """Regression: a station is at distance 0 from itself, not an
        uplink-based value."""
        snap = small_network.snapshot(0.0)
        assert engine.pair_distance_m(snap, 2, 2) == 0.0
        assert engine.pair_rtt_s(snap, 2, 2) == 0.0

    def test_rtt_is_distance_at_lightspeed(self, small_network, engine):
        snap = small_network.snapshot(0.0)
        d = engine.pair_distance_m(snap, 0, 3)
        rtt = engine.pair_rtt_s(snap, 0, 3)
        assert rtt == pytest.approx(2 * d / 299_792_458.0)

    def test_disconnected_pair_is_inf(self, small_constellation,
                                      small_stations):
        # Without ISLs and without relays, distant GSes cannot reach
        # each other through a single bent pipe.
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=15.0, isl_builder="none")
        engine = RoutingEngine(network)
        snap = network.snapshot(0.0)
        # Quito (0) and Singapore (2) are on opposite sides of the Earth:
        # no single satellite can see both.
        assert engine.pair_distance_m(snap, 0, 2) == np.inf
        assert engine.path(snap, 0, 2) is None


# ----------------------------------------------------------------------
# Batched path extraction against the scalar walk it replaced
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _extraction_network(mode):
    """The conftest 10x10 shell + six stations; ``"bent"`` drops the ISLs
    and adds a 4x4 relay grid (gids 6..21) between Madrid and Nairobi, so
    every multi-hop path there crosses relay ground stations."""
    shell = Shell(name="X1", num_orbits=10, satellites_per_orbit=10,
                  altitude_m=600_000.0, inclination_deg=53.0)
    sites = [(0.0, -78.5), (-1.3, 36.8), (1.35, 103.8), (21.3, -157.9),
             (-33.9, 151.2), (40.4, -3.7)]
    stations = [GroundStation(gid=i, name=f"gs{i}",
                              position=GeodeticPosition(lat, lon, 0.0))
                for i, (lat, lon) in enumerate(sites)]
    if mode == "grid":
        return LeoNetwork(Constellation([shell]), stations,
                          min_elevation_deg=10.0)
    relays = _relay_grid(stations[5].position, stations[1].position,
                         rows=4, columns=4)
    return LeoNetwork(Constellation([shell]), stations + relays,
                      min_elevation_deg=10.0, isl_builder="none")


@functools.lru_cache(maxsize=None)
def _extraction_snapshot(mode, time_s):
    return _extraction_network(mode).snapshot(float(time_s))


def _faulted(snapshot, dropped_isls, dark_gids):
    """``snapshot`` without some ISLs and with some stations' GSLs gone."""
    keep = np.ones(len(snapshot.isl_pairs), dtype=bool)
    if len(keep):
        keep[[index % len(keep) for index in dropped_isls]] = False
    gsl_edges = dict(snapshot.gsl_edges)
    for gid in dark_gids:
        gsl_edges[gid] = GslEdges(gid, np.empty(0, dtype=np.int64),
                                  np.empty(0))
    return dataclasses.replace(
        snapshot, isl_pairs=snapshot.isl_pairs[keep],
        isl_lengths_m=snapshot.isl_lengths_m[keep], gsl_edges=gsl_edges)


@st.composite
def _extraction_cases(draw):
    mode = draw(st.sampled_from(["grid", "bent"]))
    gid = st.integers(0, 5 if mode == "grid" else 21)
    snapshot = _faulted(
        _extraction_snapshot(mode, draw(st.sampled_from(range(0, 600, 50)))),
        draw(st.lists(st.integers(0, 199), max_size=60, unique=True)),
        draw(st.lists(gid, max_size=2, unique=True)))
    # src == dst and repeated pairs are legal inputs.
    return mode, snapshot, draw(st.lists(st.tuples(gid, gid), max_size=12))


def _oracle(multi, snapshot, pairs):
    """The scalar walk per pair, its node list as the tuple the engine
    returns."""
    expected = [scalar_path_and_distance(multi.routing_for(dst), snapshot,
                                         src)
                for src, dst in pairs]
    return [(None if path is None else tuple(path), distance)
            for path, distance in expected]


class TestBatchedExtraction:
    @settings(max_examples=150, deadline=None)
    @given(_extraction_cases())
    def test_equals_the_scalar_walk(self, case):
        """Paths ``==`` and distances ``==`` as floats, over random
        snapshots with ISL and GSL faults: disconnected sources,
        unreachable destinations, relays on the path, self pairs,
        duplicates, the empty batch."""
        mode, snapshot, pairs = case
        engine = RoutingEngine(_extraction_network(mode))
        if not pairs:
            assert engine.paths_many(snapshot, pairs) == []
            return
        multi = engine.route_to_many(snapshot, [dst for _, dst in pairs])
        expected = _oracle(multi, snapshot, pairs)
        paths, distances = engine.paths_and_distances(multi, snapshot, pairs)
        assert paths == [path for path, _ in expected]
        assert distances.tolist() == [distance for _, distance in expected]
        assert engine.paths_many(snapshot, pairs) == paths
        src, dst = pairs[-1]
        assert engine.path_and_distance_via(
            multi.routing_for(dst), snapshot, src) == expected[-1]
        assert engine.path(snapshot, src, dst) == expected[-1][0]

    def test_empty_batch(self, small_network, engine):
        snap = small_network.snapshot(0.0)
        multi = engine.route_to_many(snap, [3])
        paths, distances = engine.paths_and_distances(multi, snap, [])
        assert paths == [] and distances.shape == (0,)

    def test_self_pair_and_duplicates(self, small_network, engine):
        snap = small_network.snapshot(0.0)
        pairs = [(3, 3), (0, 3), (0, 3), (3, 3)]
        multi = engine.route_to_many(snap, [3])
        paths, distances = engine.paths_and_distances(multi, snap, pairs)
        assert paths[0] == paths[3] and paths[1] == paths[2]
        node = snap.gs_node_id(3)
        assert paths[0][0] == paths[0][-1] == node and len(paths[0]) == 3
        assert list(zip(paths, distances.tolist())) == _oracle(
            multi, snap, pairs)

    def test_relays_on_the_path(self):
        network = _extraction_network("bent")
        snap = _extraction_snapshot("bent", 100)
        engine = RoutingEngine(network)
        pairs = [(5, 1), (1, 5), (5, 2), (9, 1), (5, 20)]
        multi = engine.route_to_many(snap, [1, 5, 2, 20])
        paths, distances = engine.paths_and_distances(multi, snap, pairs)
        relays = [node for node in paths[0][1:-1]
                  if node >= network.num_satellites]
        assert len(relays) >= 2 and paths[2] is None
        assert list(zip(paths, distances.tolist())) == _oracle(
            multi, snap, pairs)

    def test_out_of_range_gids_rejected(self, small_network, engine):
        snap = small_network.snapshot(0.0)
        multi = engine.route_to_many(snap, [3])
        for src in (-1, 6):
            with pytest.raises(ValueError, match="out of range"):
                engine.paths_and_distances(multi, snap, [(0, 3), (src, 3)])
            with pytest.raises(ValueError, match="out of range"):
                engine.paths_many(snap, [(0, 3), (0, src)])

    def test_inconsistent_next_hops(self, small_network, engine):
        """A dead end is "no path"; a cycle is an error — as the scalar
        walk had it."""
        snap = small_network.snapshot(0.0)
        multi = engine.route_to_many(snap, [3])
        first, second = engine.path(snap, 0, 3)[1:3]
        dead_end = dataclasses.replace(multi, next_hop=multi.next_hop.copy())
        dead_end.next_hop[0, first] = UNREACHABLE
        paths, distances = engine.paths_and_distances(
            dead_end, snap, [(0, 3), (1, 3)])
        assert paths[0] is None and distances[0] == np.inf
        assert paths[1] is not None and np.isfinite(distances[1])
        cycle = dataclasses.replace(multi, next_hop=multi.next_hop.copy())
        cycle.next_hop[0, second] = first
        with pytest.raises(RuntimeError, match="did not terminate"):
            engine.paths_and_distances(cycle, snap, [(1, 3), (0, 3)])


class TestDynamicState:
    def test_snapshot_times(self):
        times = snapshot_times(1.0, 0.25)
        np.testing.assert_allclose(times, [0.0, 0.25, 0.5, 0.75])

    def test_snapshot_times_validation(self):
        with pytest.raises(ValueError):
            snapshot_times(0.0, 0.1)
        with pytest.raises(ValueError):
            snapshot_times(1.0, 0.0)

    def test_timeline_shapes(self, small_network):
        timelines = sweep_timelines(small_network, [(0, 3), (1, 4)],
                                    snapshot_times(5.0, 1.0))
        assert set(timelines) == {(0, 3), (1, 4)}
        tl = timelines[(0, 3)]
        assert len(tl.times_s) == 5
        assert len(tl.paths) == 5
        assert tl.rtts_s.shape == (5,)

    def test_rtts_match_engine(self, small_network, engine):
        tl = sweep_timelines(small_network, [(0, 3)],
                             snapshot_times(3.0, 1.0))[(0, 3)]
        for i, t in enumerate(tl.times_s):
            expected = engine.pair_rtt_s(small_network.snapshot(float(t)),
                                         0, 3)
            assert tl.rtts_s[i] == pytest.approx(expected, rel=1e-9)

    def test_equal_endpoints_rejected(self, small_network):
        with pytest.raises(ValueError, match="equal endpoints"):
            sweep_timelines(small_network, [(0, 3), (2, 2)],
                            snapshot_times(1.0, 0.1))

    def test_empty_pairs_rejected(self, small_network):
        with pytest.raises(ValueError, match="at least one pair"):
            sweep_timelines(small_network, [], snapshot_times(1.0, 0.1))

    def test_hop_counts(self, small_network):
        tl = sweep_timelines(small_network, [(0, 3)],
                             snapshot_times(2.0, 1.0))[(0, 3)]
        hops = tl.hop_counts()
        assert hops.dtype == np.int64
        connected = tl.connected_mask
        for i in range(len(hops)):
            if connected[i]:
                assert hops[i] == len(tl.paths[i]) - 1
            else:
                assert hops[i] == -1

    def test_hop_counts_empty_is_int64(self):
        """Regression: an empty paths list produced a float64 array."""
        tl = PairTimeline(src_gid=0, dst_gid=1,
                          times_s=np.empty(0),
                          distances_m=np.empty(0), paths=[])
        hops = tl.hop_counts()
        assert hops.dtype == np.int64
        assert hops.shape == (0,)

    def test_hop_counts_all_disconnected_is_int64(self):
        tl = PairTimeline(src_gid=0, dst_gid=1,
                          times_s=np.arange(3, dtype=float),
                          distances_m=np.full(3, np.inf),
                          paths=[None, None, None])
        hops = tl.hop_counts()
        assert hops.dtype == np.int64
        assert list(hops) == [-1, -1, -1]


class TestPathChangeCounting:
    def test_satellites_of_path(self):
        assert satellites_of_path([70, 3, 5, 71], 64) == frozenset({3, 5})
        assert satellites_of_path(None, 64) == frozenset()

    def test_no_changes(self):
        sets = [frozenset({1, 2})] * 5
        assert count_path_changes(sets) == 0

    def test_each_transition_counted(self):
        sets = [frozenset({1}), frozenset({2}), frozenset({2}),
                frozenset({1})]
        assert count_path_changes(sets) == 2

    def test_disconnection_counts_as_change(self):
        sets = [frozenset({1}), frozenset(), frozenset({1})]
        assert count_path_changes(sets) == 2

    def test_empty_sequence(self):
        assert count_path_changes([]) == 0
