"""Tests for the paper-§7 extension features: multipath routing, the
weather model, Doppler analysis, and satellite-failure injection."""

from itertools import islice

import numpy as np
import pytest

from repro.analysis.doppler import (
    doppler_shift_hz,
    isl_radial_velocities_m_per_s,
    max_isl_doppler_summary,
)
from repro.ground.weather import RainEvent, WeatherModel
from repro.routing.engine import RoutingEngine
from repro.routing.multipath import (
    edge_disjoint_paths,
    edge_disjoint_paths_many,
    k_shortest_paths,
    k_shortest_paths_many,
    path_distance_m,
)
from repro.topology.isl import plus_grid_isls
from repro.topology.network import LeoNetwork

from _orbit_oracle import period_s


class TestKShortestPaths:
    def test_first_path_matches_engine(self, small_network):
        snap = small_network.snapshot(0.0)
        engine = RoutingEngine(small_network)
        paths = k_shortest_paths(snap, 0, 3, k=3)
        assert len(paths) >= 1
        best_path, best_distance = paths[0]
        assert best_distance == pytest.approx(
            engine.pair_distance_m(snap, 0, 3), rel=1e-9)

    def test_sorted_by_distance(self, small_network):
        snap = small_network.snapshot(0.0)
        paths = k_shortest_paths(snap, 1, 4, k=4)
        distances = [d for _, d in paths]
        assert distances == sorted(distances)

    def test_paths_are_simple_and_distinct(self, small_network):
        snap = small_network.snapshot(0.0)
        paths = k_shortest_paths(snap, 0, 5, k=4)
        seen = set()
        for path, _ in paths:
            assert len(path) == len(set(path))  # loopless
            key = tuple(path)
            assert key not in seen
            seen.add(key)

    def test_no_third_party_gs_transit(self, small_network):
        snap = small_network.snapshot(0.0)
        for path, _ in k_shortest_paths(snap, 0, 3, k=5):
            for node in path[1:-1]:
                assert node < small_network.num_satellites

    def test_endpoints(self, small_network):
        snap = small_network.snapshot(0.0)
        for path, _ in k_shortest_paths(snap, 2, 5, k=2):
            assert path[0] == snap.gs_node_id(2)
            assert path[-1] == snap.gs_node_id(5)

    def test_validation(self, small_network):
        snap = small_network.snapshot(0.0)
        with pytest.raises(ValueError):
            k_shortest_paths(snap, 0, 0, k=1)
        with pytest.raises(ValueError):
            k_shortest_paths(snap, 0, 1, k=0)


class TestEdgeDisjointPaths:
    def test_disjointness(self, small_network):
        snap = small_network.snapshot(0.0)
        paths = edge_disjoint_paths(snap, 0, 3, max_paths=4)
        assert len(paths) >= 2  # +Grid plus several GSLs offer diversity
        used = set()
        for path, _ in paths:
            for a, b in zip(path, path[1:]):
                edge = (min(a, b), max(a, b))
                assert edge not in used
                used.add(edge)

    def test_distances_nondecreasing(self, small_network):
        snap = small_network.snapshot(0.0)
        paths = edge_disjoint_paths(snap, 1, 4, max_paths=4)
        distances = [d for _, d in paths]
        assert distances == sorted(distances)

    def test_validation(self, small_network):
        snap = small_network.snapshot(0.0)
        with pytest.raises(ValueError):
            edge_disjoint_paths(snap, 0, 1, max_paths=0)

    def test_equal_endpoints_rejected(self, small_network):
        # Regression: equal endpoints used to return max_paths copies of
        # the degenerate single-node path [src] with distance 0.
        snap = small_network.snapshot(0.0)
        with pytest.raises(ValueError, match="must differ"):
            edge_disjoint_paths(snap, 2, 2, max_paths=4)


def _pruned_graph(snap, src, dst):
    """The pair's search graph built the slow way: every third-party
    non-relay ground station removed from a fresh copy."""
    graph = snap.to_networkx()
    for gid in range(snap.num_ground_stations):
        if gid not in (src, dst) and gid not in snap.relay_gids:
            graph.remove_node(snap.gs_node_id(gid))
    return graph


class TestBatchedMultipath:
    PAIRS = [(0, 3), (1, 4), (2, 5), (0, 5)]

    def _assert_well_formed(self, network, snap, pair, found):
        assert found
        distances = [distance for _, distance in found]
        assert distances == sorted(distances)
        for path, _ in found:
            assert path[0] == snap.gs_node_id(pair[0])
            assert path[-1] == snap.gs_node_id(pair[1])
            assert len(path) == len(set(path))  # loopless
            assert all(node < network.num_satellites
                       for node in path[1:-1])  # no third-party GS

    def test_k_shortest_many_matches_per_pair(self, small_network):
        import networkx as nx
        snap = small_network.snapshot(0.0)
        batched = k_shortest_paths_many(snap, self.PAIRS, k=3)
        assert set(batched) == set(self.PAIRS)
        for pair, found in batched.items():
            self._assert_well_formed(small_network, snap, pair, found)
            # The overlay search finds what a search of the pair's own
            # pruned copy does.
            oracle = nx.shortest_simple_paths(
                _pruned_graph(snap, *pair), snap.gs_node_id(pair[0]),
                snap.gs_node_id(pair[1]), weight="distance_m")
            assert [path for path, _ in found] == list(islice(oracle, 3))

    def test_edge_disjoint_many_matches_per_pair(self, small_network):
        import networkx as nx
        snap = small_network.snapshot(0.0)
        batched = edge_disjoint_paths_many(snap, self.PAIRS, max_paths=3)
        assert set(batched) == set(self.PAIRS)
        for pair, found in batched.items():
            self._assert_well_formed(small_network, snap, pair, found)
            edges = [frozenset(edge) for path, _ in found
                     for edge in zip(path, path[1:])]
            assert len(edges) == len(set(edges))
            # Greedy elimination on a pruned copy gives the same set.
            graph = _pruned_graph(snap, *pair)
            for path, distance in found:
                assert path == nx.shortest_path(
                    graph, path[0], path[-1], weight="distance_m")
                assert distance == path_distance_m(graph, path)
                graph.remove_edges_from(list(zip(path, path[1:])))

    def test_duplicates_collapse(self, small_network):
        snap = small_network.snapshot(0.0)
        batched = k_shortest_paths_many(snap, [(0, 3), (0, 3)], k=2)
        assert list(batched) == [(0, 3)]

    def test_validation(self, small_network):
        snap = small_network.snapshot(0.0)
        with pytest.raises(ValueError, match="must differ"):
            k_shortest_paths_many(snap, [(0, 3), (1, 1)], k=2)
        with pytest.raises(ValueError, match="must differ"):
            edge_disjoint_paths_many(snap, [(4, 4)], max_paths=2)
        with pytest.raises(ValueError):
            k_shortest_paths_many(snap, [(0, 3)], k=0)
        with pytest.raises(ValueError):
            edge_disjoint_paths_many(snap, [(0, 3)], max_paths=0)


class TestWeatherModel:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            RainEvent(0, 10.0, 5.0, 20.0)
        with pytest.raises(ValueError):
            RainEvent(0, 0.0, 5.0, -1.0)

    def test_penalty_windows(self):
        model = WeatherModel([
            RainEvent(0, 10.0, 20.0, 15.0),
            RainEvent(0, 15.0, 30.0, 10.0),
            RainEvent(1, 0.0, 5.0, 90.0),
        ])
        assert model.penalty_deg(0, 5.0) == 0.0
        assert model.penalty_deg(0, 12.0) == 15.0
        assert model.penalty_deg(0, 17.0) == 25.0  # overlapping events add
        assert model.penalty_deg(0, 25.0) == 10.0
        assert model.penalty_deg(2, 12.0) == 0.0
        assert model.is_raining(1, 2.0)
        assert not model.is_raining(1, 6.0)

    def test_elevation_capped_at_90(self):
        model = WeatherModel([RainEvent(0, 0.0, 10.0, 90.0)])
        assert model.min_elevation_deg(0, 30.0, 5.0) == 90.0

    def test_synthetic_deterministic(self):
        a = WeatherModel.synthetic(50, 100.0, seed=3)
        b = WeatherModel.synthetic(50, 100.0, seed=3)
        assert a.num_events == b.num_events
        c = WeatherModel.synthetic(50, 100.0, seed=4)
        # Different seeds produce a different schedule (statistically).
        assert a.num_events != c.num_events or a._by_gid != c._by_gid

    def test_network_integration_storm_disconnects(self, small_constellation,
                                                   small_stations):
        """A total-outage storm over a station removes its GSLs while
        active, and they return afterwards."""
        storm = WeatherModel([RainEvent(0, 10.0, 20.0, 90.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, weather=storm)
        before = network.snapshot(5.0)
        during = network.snapshot(15.0)
        after = network.snapshot(25.0)
        assert before.gsl_edges[0].is_connected
        assert not during.gsl_edges[0].is_connected
        assert after.gsl_edges[0].is_connected
        # Other stations are unaffected.
        assert during.gsl_edges[1].is_connected

    def test_weather_reroutes_traffic(self, small_constellation,
                                      small_stations):
        """Rerouting around bad weather: a partial-penalty storm changes
        the path but connectivity survives (the paper's §7 use case)."""
        storm = WeatherModel([RainEvent(0, 0.0, 100.0, 10.0)])
        clear = LeoNetwork(small_constellation, small_stations,
                           min_elevation_deg=10.0)
        rainy = LeoNetwork(small_constellation, small_stations,
                           min_elevation_deg=10.0, weather=storm)
        clear_rtt = RoutingEngine(clear).pair_rtt_s(
            clear.snapshot(50.0), 0, 3)
        rainy_rtt = RoutingEngine(rainy).pair_rtt_s(
            rainy.snapshot(50.0), 0, 3)
        assert np.isfinite(rainy_rtt)
        assert rainy_rtt >= clear_rtt  # fewer options can't shorten paths


class TestDoppler:
    def test_same_orbit_links_zero_doppler(self, small_constellation):
        """+Grid intra-orbit neighbors keep constant separation."""
        pairs = np.array([[0, 1], [1, 2]])  # neighbors in orbit 0
        velocities = isl_radial_velocities_m_per_s(
            small_constellation, pairs, time_s=100.0)
        np.testing.assert_allclose(velocities, 0.0, atol=0.5)

    def test_cross_orbit_links_oscillate(self, small_constellation):
        """Cross-orbit links change length (paper §2.3) — at some sample
        time their radial speed is large."""
        shell = small_constellation.shells[0]
        cross_pairs = np.array([[0, shell.satellites_per_orbit]])
        speeds = [
            abs(float(isl_radial_velocities_m_per_s(
                small_constellation, cross_pairs, t)[0]))
            for t in np.linspace(10.0, period_s(
                small_constellation.satellites[0].elements), 20)
        ]
        assert max(speeds) > 100.0

    def test_doppler_shift_sign(self):
        # Receding link (positive radial velocity) -> negative shift.
        shift = doppler_shift_hz(193.4e12, np.array([1000.0]))
        assert shift[0] < 0.0

    def test_doppler_shift_magnitude(self):
        # v/c * f: 3 km/s on a 193.4 THz carrier is ~1.9 GHz.
        shift = doppler_shift_hz(193.4e12, np.array([3000.0]))
        assert abs(shift[0]) == pytest.approx(193.4e12 * 3000 / 299792458.0)

    def test_summary(self, small_constellation):
        pairs = plus_grid_isls(small_constellation)
        summary = max_isl_doppler_summary(small_constellation, pairs,
                                          sample_times_s=(0.0, 300.0))
        assert summary["max_radial_speed_m_per_s"] > 0.0
        assert summary["max_doppler_shift_hz"] > 0.0

    def test_validation(self, small_constellation):
        with pytest.raises(ValueError):
            isl_radial_velocities_m_per_s(
                small_constellation, np.array([[0, 1]]), 0.0, dt_s=0.0)
        with pytest.raises(ValueError):
            doppler_shift_hz(0.0, np.array([1.0]))


class TestFailureInjection:
    def test_failed_satellite_loses_links(self, small_constellation,
                                          small_stations):
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0,
                             failed_satellites=[5])
        assert not any(5 in pair for pair in
                       network.isl_pairs.tolist())
        snap = network.snapshot(0.0)
        for edges in snap.gsl_edges.values():
            assert 5 not in edges.satellite_ids

    def test_plus_grid_routes_around_single_failure(self,
                                                    small_constellation,
                                                    small_stations):
        """+Grid's mesh redundancy: killing one on-path satellite leaves
        the pair connected, at an equal-or-longer RTT."""
        healthy = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0)
        engine = RoutingEngine(healthy)
        snap = healthy.snapshot(0.0)
        path = engine.path(snap, 0, 3)
        victim = next(n for n in path[1:-1]
                      if n < healthy.num_satellites)
        healthy_rtt = engine.pair_rtt_s(snap, 0, 3)

        degraded = LeoNetwork(small_constellation, small_stations,
                              min_elevation_deg=10.0,
                              failed_satellites=[victim])
        degraded_engine = RoutingEngine(degraded)
        degraded_snap = degraded.snapshot(0.0)
        degraded_rtt = degraded_engine.pair_rtt_s(degraded_snap, 0, 3)
        assert np.isfinite(degraded_rtt)
        assert degraded_rtt >= healthy_rtt
        new_path = degraded_engine.path(degraded_snap, 0, 3)
        assert victim not in new_path

    def test_mass_failure_disconnects(self, small_constellation,
                                      small_stations):
        # Kill 90% of satellites: the network falls apart.
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0,
                             failed_satellites=list(range(90)))
        engine = RoutingEngine(network)
        snap = network.snapshot(0.0)
        rtts = [engine.pair_rtt_s(snap, 0, dst) for dst in range(1, 6)]
        assert any(not np.isfinite(r) for r in rtts)

    def test_out_of_range_failure_rejected(self, small_constellation,
                                           small_stations):
        with pytest.raises(ValueError):
            LeoNetwork(small_constellation, small_stations,
                       min_elevation_deg=10.0,
                       failed_satellites=[1000])


class TestHeterogeneousCapacities:
    def test_isl_override_applies(self, small_network):
        from repro.simulation.simulator import LinkConfig, PacketSimulator
        a, b = (int(x) for x in small_network.isl_pairs[0])
        sim = PacketSimulator(
            small_network, LinkConfig(isl_rate_bps=10e6),
            isl_rate_overrides={(a, b): 50e6})
        assert sim.isl_device(a, b).rate_bps == 50e6
        assert sim.isl_device(b, a).rate_bps == 10e6  # directed override

    def test_gsl_override_applies(self, small_network):
        from repro.simulation.simulator import PacketSimulator
        node = small_network.gs_node_id(0)
        sim = PacketSimulator(small_network,
                              gsl_rate_overrides={node: 1e6})
        assert sim.gsl_device(node).rate_bps == 1e6

    def test_non_isl_override_rejected(self, small_network):
        from repro.simulation.simulator import PacketSimulator
        with pytest.raises(ValueError):
            PacketSimulator(small_network,
                            isl_rate_overrides={(0, 50): 1e6})

    def test_fluid_capacity_override_shifts_bottleneck(self, small_network):
        """Upgrading a flow's source GSL device moves its bottleneck."""
        from repro.fluid.engine import FluidFlow, FluidSimulation
        from repro.routing.engine import RoutingEngine
        engine = RoutingEngine(small_network)
        snap = small_network.snapshot(0.0)
        path = engine.path(snap, 0, 3)
        src_gsl = ("gsl", snap.gs_node_id(0))
        base = FluidSimulation(small_network, [FluidFlow(0, 3)],
                               link_capacity_bps=10e6)
        upgraded = FluidSimulation(
            small_network, [FluidFlow(0, 3)], link_capacity_bps=10e6,
            capacity_overrides={src_gsl: 40e6})
        base_rate = base.run(1.0, 1.0).flow_rates_bps[0, 0]
        up_rate = upgraded.run(1.0, 1.0).flow_rates_bps[0, 0]
        # The flow is still limited by the rest of the (10 Mbit/s) path.
        assert base_rate == pytest.approx(10e6, rel=1e-6)
        assert up_rate == pytest.approx(10e6, rel=1e-6)
        # But a degraded device caps it.
        degraded = FluidSimulation(
            small_network, [FluidFlow(0, 3)], link_capacity_bps=10e6,
            capacity_overrides={src_gsl: 2e6})
        down_rate = degraded.run(1.0, 1.0).flow_rates_bps[0, 0]
        assert down_rate == pytest.approx(2e6, rel=1e-6)

    def test_fluid_invalid_override_rejected(self, small_network):
        from repro.fluid.engine import FluidFlow, FluidSimulation
        with pytest.raises(ValueError):
            FluidSimulation(small_network, [FluidFlow(0, 1)],
                            capacity_overrides={("gsl", 0): 0.0})
