"""Tests for orbital shells and their +Grid neighborhoods."""

import functools
import math

import pytest

from repro.constellations.builder import Constellation
from repro.orbits.shell import SatelliteIndex, Shell
from repro.topology.isl import plus_grid_isls


@pytest.fixture
def shell() -> Shell:
    return Shell(name="T", num_orbits=6, satellites_per_orbit=4,
                 altitude_m=600_000.0, inclination_deg=53.0)


class TestShellValidation:
    def test_valid(self, shell):
        assert shell.total_satellites == 24
        assert shell.altitude_km == 600.0

    def test_rejects_zero_orbits(self):
        with pytest.raises(ValueError):
            Shell("x", 0, 4, 600_000.0, 53.0)

    def test_rejects_zero_satellites(self):
        with pytest.raises(ValueError):
            Shell("x", 4, 0, 600_000.0, 53.0)

    def test_rejects_negative_altitude(self):
        with pytest.raises(ValueError):
            Shell("x", 4, 4, -1.0, 53.0)

    def test_rejects_bad_inclination(self):
        with pytest.raises(ValueError):
            Shell("x", 4, 4, 600_000.0, 181.0)

    def test_rejects_bad_phase_offset(self):
        with pytest.raises(ValueError):
            Shell("x", 4, 4, 600_000.0, 53.0, phase_offset_rel=1.0)


class TestIndexing:
    def test_flat_id_round_trip(self, shell):
        for sat_id, index in enumerate(shell.iter_indices()):
            assert shell.satellite_id(index) == sat_id

    def test_flat_id_layout(self, shell):
        assert shell.satellite_id(SatelliteIndex(0, 0)) == 0
        assert shell.satellite_id(SatelliteIndex(1, 0)) == 4
        assert shell.satellite_id(SatelliteIndex(5, 3)) == 23

    def test_out_of_range_rejected(self, shell):
        with pytest.raises(ValueError):
            shell.satellite_id(SatelliteIndex(6, 0))
        with pytest.raises(ValueError):
            shell.satellite_id(SatelliteIndex(0, 4))

    def test_iter_order(self, shell):
        indices = list(shell.iter_indices())
        assert len(indices) == 24
        assert indices[0] == SatelliteIndex(0, 0)
        assert indices[4] == SatelliteIndex(1, 0)


class TestElements:
    def test_raan_uniformly_spread(self, shell):
        raans = [shell.elements_for(SatelliteIndex(o, 0)).raan_rad
                 for o in range(shell.num_orbits)]
        spacing = 2 * math.pi / shell.num_orbits
        for i, raan in enumerate(raans):
            assert raan == pytest.approx(i * spacing)

    def test_in_orbit_uniform_spacing(self, shell):
        anomalies = [
            shell.elements_for(SatelliteIndex(0, p)).mean_anomaly_rad
            for p in range(shell.satellites_per_orbit)
        ]
        spacing = 2 * math.pi / shell.satellites_per_orbit
        for i, anomaly in enumerate(anomalies):
            assert anomaly == pytest.approx(i * spacing)

    def test_all_same_altitude_and_inclination(self, shell):
        for index in shell.iter_indices():
            el = shell.elements_for(index)
            assert el.inclination_rad == pytest.approx(math.radians(53.0))
            assert el.eccentricity == 0.0

    def test_phase_offset_shifts_adjacent_planes(self):
        shell = Shell("p", 4, 4, 600_000.0, 53.0, phase_offset_rel=0.5)
        a = shell.elements_for(SatelliteIndex(0, 0)).mean_anomaly_rad
        b = shell.elements_for(SatelliteIndex(1, 0)).mean_anomaly_rad
        slot = 2 * math.pi / 4
        assert b - a == pytest.approx(0.5 * slot)

    def test_all_elements_count(self, shell):
        elements = [shell.elements_for(index)
                    for index in shell.iter_indices()]
        assert len(elements) == shell.total_satellites


@functools.lru_cache(maxsize=None)
def _grid_pairs(shell):
    return plus_grid_isls(Constellation([shell])).tolist()


def grid_neighbors(shell, index):
    """A satellite's +Grid neighbors (paper §3.1), read off the ISL list
    the product wires the shell with."""
    this_id = shell.satellite_id(index)
    indices = list(shell.iter_indices())
    return {indices[a + b - this_id] for a, b in _grid_pairs(shell)
            if this_id in (a, b)}


class TestGridNeighbors:
    def test_four_distinct_neighbors(self, shell):
        assert len(grid_neighbors(shell, SatelliteIndex(2, 2))) == 4

    def test_neighbor_identity(self, shell):
        assert grid_neighbors(shell, SatelliteIndex(2, 2)) == {
            SatelliteIndex(2, 1), SatelliteIndex(2, 3),
            SatelliteIndex(1, 2), SatelliteIndex(3, 2)}

    def test_wraparound(self, shell):
        neighbors = grid_neighbors(shell, SatelliteIndex(0, 0))
        assert SatelliteIndex(0, 3) in neighbors
        assert SatelliteIndex(5, 0) in neighbors

    def test_neighborhood_symmetric(self, shell):
        """If B is A's neighbor then A is B's neighbor."""
        for index in shell.iter_indices():
            for neighbor in grid_neighbors(shell, index):
                assert index in grid_neighbors(shell, neighbor)
