"""Tests for ISL interconnects, GSL policies, and topology snapshots."""

import numpy as np
import pytest

from repro.geo.constants import SPEED_OF_LIGHT_M_PER_S
from repro.topology.gsl import GslEdges, GslPolicy, compute_gsl_edges
from repro.topology.isl import (
    isl_lengths_m,
    no_isls,
    plus_grid_isls,
    single_ring_isls,
    validate_isl_pairs,
)
from repro.topology.network import LeoNetwork


class TestPlusGrid:
    def test_edge_count(self, small_constellation):
        # +Grid has exactly 2 undirected ISLs per satellite.
        pairs = plus_grid_isls(small_constellation)
        assert len(pairs) == 2 * small_constellation.num_satellites

    def test_every_satellite_has_degree_four(self, small_constellation):
        pairs = plus_grid_isls(small_constellation)
        degree = np.zeros(small_constellation.num_satellites, dtype=int)
        for a, b in pairs:
            degree[a] += 1
            degree[b] += 1
        assert (degree == 4).all()

    def test_pairs_canonical_and_unique(self, small_constellation):
        pairs = plus_grid_isls(small_constellation)
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert len({tuple(p) for p in pairs.tolist()}) == len(pairs)

    def test_validates(self, small_constellation):
        pairs = plus_grid_isls(small_constellation)
        validate_isl_pairs(pairs, small_constellation.num_satellites)

    def test_graph_connected(self, small_constellation):
        import networkx as nx
        graph = nx.Graph()
        graph.add_edges_from(map(tuple, plus_grid_isls(small_constellation)))
        assert nx.is_connected(graph)

    def test_no_isls_empty(self, small_constellation):
        assert len(no_isls(small_constellation)) == 0

    def test_single_ring_degree_two(self, small_constellation):
        pairs = single_ring_isls(small_constellation)
        degree = np.zeros(small_constellation.num_satellites, dtype=int)
        for a, b in pairs:
            degree[a] += 1
            degree[b] += 1
        assert (degree == 2).all()

    def test_single_ring_is_subset_of_plus_grid(self, small_constellation):
        grid = {tuple(p) for p in plus_grid_isls(small_constellation).tolist()}
        ring = {tuple(p) for p in
                single_ring_isls(small_constellation).tolist()}
        assert ring < grid


class TestIslValidation:
    def test_rejects_self_link(self):
        with pytest.raises(ValueError):
            validate_isl_pairs(np.array([[3, 3]]), 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_isl_pairs(np.array([[0, 10]]), 10)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            validate_isl_pairs(np.array([[0, 1], [1, 0]]), 10)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            validate_isl_pairs(np.array([[0, 1, 2]]), 10)

    def test_empty_ok(self):
        validate_isl_pairs(np.empty((0, 2)), 10)


class TestIslLengths:
    def test_lengths_match_positions(self, small_constellation):
        pairs = plus_grid_isls(small_constellation)
        positions = small_constellation.positions_ecef_m(0.0)
        lengths = isl_lengths_m(pairs, positions)
        assert len(lengths) == len(pairs)
        a, b = pairs[0]
        assert lengths[0] == pytest.approx(
            np.linalg.norm(positions[a] - positions[b]))

    def test_lengths_vary_over_time(self, small_constellation):
        # Cross-orbit ISLs stretch and shrink with latitude (paper §2.3).
        pairs = plus_grid_isls(small_constellation)
        l0 = isl_lengths_m(pairs, small_constellation.positions_ecef_m(0.0))
        l1 = isl_lengths_m(pairs, small_constellation.positions_ecef_m(60.0))
        assert np.abs(l1 - l0).max() > 100.0

    def test_intra_orbit_lengths_constant(self, small_constellation):
        """Same-orbit neighbors keep a fixed separation as they fly."""
        shell = small_constellation.shells[0]
        sat_a = 0
        sat_b = 1  # next in the same orbit
        d = []
        for t in [0.0, 100.0, 500.0]:
            positions = small_constellation.positions_ecef_m(t)
            d.append(np.linalg.norm(positions[sat_a] - positions[sat_b]))
        np.testing.assert_allclose(d, d[0], rtol=1e-9)


class TestGslPolicies:
    def test_all_visible_vs_nearest(self, small_constellation,
                                    small_stations):
        positions = small_constellation.positions_ecef_m(0.0)
        all_edges = compute_gsl_edges(small_stations, positions, 15.0,
                                      GslPolicy.ALL_VISIBLE)
        nearest = compute_gsl_edges(small_stations, positions, 15.0,
                                    GslPolicy.NEAREST_ONLY)
        for gid in range(len(small_stations)):
            assert len(nearest[gid].satellite_ids) <= 1
            if all_edges[gid].is_connected:
                assert nearest[gid].is_connected
                closest = np.argmin(all_edges[gid].lengths_m)
                assert nearest[gid].satellite_ids[0] == \
                    all_edges[gid].satellite_ids[closest]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GslEdges(gid=0, satellite_ids=np.array([1, 2]),
                     lengths_m=np.array([1.0]))

    def test_stricter_elevation_fewer_edges(self, small_constellation,
                                            small_stations):
        positions = small_constellation.positions_ecef_m(0.0)
        loose = compute_gsl_edges(small_stations, positions, 10.0)
        strict = compute_gsl_edges(small_stations, positions, 40.0)
        for gid in range(len(small_stations)):
            assert len(strict[gid].satellite_ids) <= \
                len(loose[gid].satellite_ids)

    def test_numpy_scalar_min_elevation(self, small_constellation,
                                        small_stations):
        """A np.float32 threshold (e.g. from a weather model) must take
        the scalar branch, not crash in the mapping branch."""
        positions = small_constellation.positions_ecef_m(0.0)
        reference = compute_gsl_edges(small_stations, positions, 15.0)
        for scalar in (np.float32(15.0), np.float64(15.0), 15):
            edges = compute_gsl_edges(small_stations, positions, scalar)
            for gid in reference:
                assert np.array_equal(edges[gid].satellite_ids,
                                      reference[gid].satellite_ids)

    def test_exclusion_keeps_int64_when_emptied(self, small_constellation,
                                                small_stations):
        """Excluding every visible satellite must leave an empty int64
        id array, not a float64 one."""
        positions = small_constellation.positions_ecef_m(0.0)
        excluded = set(range(small_constellation.num_satellites))
        edges = compute_gsl_edges(small_stations, positions, 15.0,
                                  excluded_satellites=excluded)
        for gid in range(len(small_stations)):
            assert not edges[gid].is_connected
            assert edges[gid].satellite_ids.dtype == np.int64

    def test_exclusion_filters_only_excluded(self, small_constellation,
                                             small_stations):
        positions = small_constellation.positions_ecef_m(0.0)
        plain = compute_gsl_edges(small_stations, positions, 15.0)
        victim = int(plain[0].satellite_ids[0])
        edges = compute_gsl_edges(small_stations, positions, 15.0,
                                  excluded_satellites={victim})
        for gid in range(len(small_stations)):
            expected = [s for s in plain[gid].satellite_ids if s != victim]
            assert list(edges[gid].satellite_ids) == expected

    def test_visible_pairs_equal_the_full_elevation_table(
            self, small_constellation, small_stations):
        # The bounded shortcut must select exactly what a threshold on
        # the full table selects, with the same slant-range bits —
        # including thresholds at 90 degrees and above (a cut station
        # carries inf: nothing visible, and no RuntimeWarning).
        import warnings

        from repro.ground.visibility import (batched_visible_satellites,
                                             elevation_angles_deg)
        thresholds = np.array([10.0, 0.0, 37.5, 90.0, np.inf, 62.0])
        for time_s in (0.0, 7.0, 311.0, 1234.5):
            positions = small_constellation.positions_ecef_m(time_s)
            elevations = np.stack([
                elevation_angles_deg(station, positions)
                for station in small_stations])
            deltas = positions[None, :, :] - np.stack(
                [station.ecef_m for station in small_stations])[:, None, :]
            distances = np.sqrt(np.einsum("gnk,gnk->gn", deltas, deltas))
            expected = np.nonzero(elevations >= thresholds[:, None])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                station_index, satellite_ids, lengths = (
                    batched_visible_satellites(small_stations, positions,
                                               thresholds))
            assert np.array_equal(station_index, expected[0])
            assert np.array_equal(satellite_ids, expected[1])
            assert np.array_equal(lengths, distances[expected])
            assert satellite_ids.dtype == np.int64
            assert not np.any(station_index == 4)
        assert len(station_index) >= 4  # the loose thresholds see some
        none = batched_visible_satellites(small_stations, positions,
                                          np.full(6, np.inf))
        assert [len(part) for part in none] == [0, 0, 0]

    def test_mapping_elevation_still_supported(self, small_constellation,
                                               small_stations):
        positions = small_constellation.positions_ecef_m(0.0)
        per_station = {station.gid: 15.0 for station in small_stations}
        per_station[0] = 90.0  # station 0 effectively blacked out
        edges = compute_gsl_edges(small_stations, positions, per_station)
        reference = compute_gsl_edges(small_stations, positions, 15.0)
        assert len(edges[0].satellite_ids) <= 1  # only near-zenith sats
        for gid in range(1, len(small_stations)):
            assert np.array_equal(edges[gid].satellite_ids,
                                  reference[gid].satellite_ids)


class TestLeoNetwork:
    def test_node_numbering(self, small_network):
        assert small_network.num_satellites == 100
        assert small_network.num_ground_stations == 6
        assert small_network.num_nodes == 106
        assert small_network.gs_node_id(0) == 100
        assert small_network.gs_node_id(5) == 105

    def test_gid_out_of_range(self, small_network):
        with pytest.raises(ValueError):
            small_network.gs_node_id(6)

    def test_nonconsecutive_gids_rejected(self, small_constellation,
                                          small_stations):
        shuffled = [small_stations[1], small_stations[0]]
        with pytest.raises(ValueError):
            LeoNetwork(small_constellation, shuffled, 15.0)

    def test_bad_elevation_rejected(self, small_constellation,
                                    small_stations):
        with pytest.raises(ValueError):
            LeoNetwork(small_constellation, small_stations, 91.0)

    def test_snapshot_contents(self, small_network):
        snap = small_network.snapshot(10.0)
        assert snap.time_s == 10.0
        assert snap.satellite_positions_m.shape == (100, 3)
        assert len(snap.isl_lengths_m) == len(snap.isl_pairs)
        assert set(snap.gsl_edges) == set(range(6))

    def test_to_networkx(self, small_network):
        snap = small_network.snapshot(0.0)
        graph = snap.to_networkx()
        assert graph.number_of_nodes() == 106
        sat_degrees = [graph.degree(n) for n in range(100)]
        assert min(sat_degrees) >= 4  # +Grid plus any GSLs
        # Edge attributes present and consistent.
        for _, _, data in list(graph.edges(data=True))[:10]:
            assert data["delay_s"] == pytest.approx(
                data["distance_m"] / SPEED_OF_LIGHT_M_PER_S)
            assert data["kind"] in ("isl", "gsl")
