"""Tests for the ground segment: cities, stations, visibility."""

import math

import numpy as np
import pytest

from repro.constellations.builder import Constellation
from repro.constellations.definitions import KUIPER_K1
from repro.geo.coordinates import GeodeticPosition, geodetic_to_ecef
from repro.ground.cities import CITY_RECORDS, top_cities
from repro.ground.stations import (
    GroundStation,
    ground_stations_from_cities,
    relay_grid_between,
)
from repro.ground.visibility import (
    azimuth_elevation_deg,
    elevation_angles_deg,
)


def visible_satellite_ids(station, positions, min_elevation_deg):
    elevations = elevation_angles_deg(station, positions)
    return np.nonzero(elevations >= min_elevation_deg)[0]


class TestCities:
    def test_exactly_100_cities(self):
        assert len(CITY_RECORDS) == 100
        assert len(top_cities(100)) == 100

    def test_ranks_sequential(self):
        ranks = [city.rank for city in top_cities(100)]
        assert ranks == list(range(1, 101))

    def test_populations_monotonically_nonincreasing(self):
        populations = [city.population for city in top_cities(100)]
        assert all(a >= b for a, b in zip(populations, populations[1:]))

    def test_names_unique(self):
        names = [city.name for city in top_cities(100)]
        assert len(set(names)) == 100

    def test_paper_focus_cities_present(self):
        names = {city.name for city in top_cities(100)}
        for name in ["Rio de Janeiro", "Saint Petersburg", "Manila",
                     "Dalian", "Istanbul", "Nairobi", "Paris", "Luanda",
                     "Moscow", "Chicago", "Zhengzhou"]:
            assert name in names

    def test_tokyo_most_populous(self):
        assert top_cities(1)[0].name == "Tokyo"

    def test_count_validation(self):
        with pytest.raises(ValueError):
            top_cities(0)
        with pytest.raises(ValueError):
            top_cities(101)

    def test_st_petersburg_high_latitude(self):
        # The root cause of the paper's Fig. 3(a) disruption: latitude
        # close to (above) Kuiper's inclination limit.
        city, = (c for c in top_cities(100) if c.name == "Saint Petersburg")
        assert city.latitude_deg > 55.0

    def test_coordinates_in_range(self):
        for city in top_cities(100):
            assert -90 <= city.latitude_deg <= 90
            assert -180 <= city.longitude_deg <= 180


class TestGroundStations:
    def test_gids_sequential(self):
        stations = ground_stations_from_cities(count=10)
        assert [s.gid for s in stations] == list(range(10))

    def test_ecef_cached_and_consistent(self):
        station = ground_stations_from_cities(count=1)[0]
        expected = geodetic_to_ecef(station.position)
        np.testing.assert_allclose(station.ecef_m, expected)

    def test_not_relays_by_default(self):
        for station in ground_stations_from_cities(count=5):
            assert not station.is_relay

    def test_relay_grid_size_and_flags(self):
        a = GeodeticPosition(48.86, 2.35)   # Paris
        b = GeodeticPosition(55.76, 37.62)  # Moscow
        relays = relay_grid_between(a, b, rows=3, columns=4)
        assert len(relays) == 12
        assert all(r.is_relay for r in relays)
        assert [r.gid for r in relays] == list(range(12))

    def test_relay_grid_covers_endpoints_box(self):
        a = GeodeticPosition(48.86, 2.35)
        b = GeodeticPosition(55.76, 37.62)
        relays = relay_grid_between(a, b, rows=3, columns=3)
        lats = [r.latitude_deg for r in relays]
        lons = [r.longitude_deg for r in relays]
        assert min(lats) == pytest.approx(48.86 - 3.0)
        assert max(lats) == pytest.approx(55.76 + 3.0)
        assert min(lons) == pytest.approx(2.35 - 3.0)
        assert max(lons) == pytest.approx(37.62 + 3.0)

    def test_relay_grid_validation(self):
        a = GeodeticPosition(0.0, 0.0)
        with pytest.raises(ValueError):
            relay_grid_between(a, a, rows=1, columns=5)


class TestVisibility:
    def test_satellite_directly_overhead(self):
        station = GroundStation(0, "equator", GeodeticPosition(0.0, 0.0))
        overhead = station.ecef_m * (1 + 600_000.0 / np.linalg.norm(
            station.ecef_m))
        elevations = elevation_angles_deg(station, overhead[None, :])
        assert elevations[0] == pytest.approx(90.0, abs=0.01)

    def test_satellite_below_horizon(self):
        station = GroundStation(0, "equator", GeodeticPosition(0.0, 0.0))
        antipode = -station.ecef_m * 1.1
        elevations = elevation_angles_deg(station, antipode[None, :])
        assert elevations[0] < 0.0

    def test_visible_ids_filtering(self):
        station = GroundStation(0, "equator", GeodeticPosition(0.0, 0.0))
        constellation = Constellation([KUIPER_K1])
        positions = constellation.positions_ecef_m(0.0)
        loose = visible_satellite_ids(station, positions, 10.0)
        strict = visible_satellite_ids(station, positions, 40.0)
        assert len(strict) <= len(loose)
        assert set(strict).issubset(set(loose))
        assert len(loose) > 0

    def test_lower_min_elevation_sees_more(self):
        # The mechanism behind Telesat's latency advantage (paper §5.1).
        station = GroundStation(0, "nairobi", GeodeticPosition(-1.29, 36.82))
        constellation = Constellation([KUIPER_K1])
        positions = constellation.positions_ecef_m(0.0)
        counts = [len(visible_satellite_ids(station, positions, el))
                  for el in [10.0, 20.0, 30.0, 40.0]]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[0] > counts[-1]

    def test_azimuth_convention(self):
        # A satellite due east of an equatorial station has azimuth ~90.
        station = GroundStation(0, "origin", GeodeticPosition(0.0, 0.0))
        east_point = geodetic_to_ecef(GeodeticPosition(0.0, 10.0, 600_000.0))
        azimuths, elevations = azimuth_elevation_deg(
            station, east_point[None, :])
        assert azimuths[0] == pytest.approx(90.0, abs=0.5)
        assert elevations[0] > 0.0

    def test_azimuth_north(self):
        station = GroundStation(0, "origin", GeodeticPosition(0.0, 0.0))
        north_point = geodetic_to_ecef(GeodeticPosition(10.0, 0.0, 600_000.0))
        azimuths, _ = azimuth_elevation_deg(station, north_point[None, :])
        assert azimuths[0] == pytest.approx(0.0, abs=0.5)


class TestMaxSlantRange:
    def test_bounds_actual_gsl_lengths(self, kuiper_network):
        """No admissible GSL is ever longer than the analytic bound: by
        the law of cosines a satellite at orbit radius ``o`` seen at
        elevation ``l`` from a station at radius ``r`` is
        ``-r sin(l) + sqrt(o^2 - r^2 cos^2(l))`` away, which is maximal at
        the minimum elevation.

        The conservative bound places the station at the ellipsoid's polar
        radius while the satellite orbits at equatorial radius + altitude.
        """
        from repro.geo.constants import WGS72, WGS84
        snapshot = kuiper_network.snapshot(0.0)
        r = WGS84.semi_major_axis_m * (1.0 - WGS84.flattening)
        orbit = WGS72.semi_major_axis_m + 630_000.0
        low = math.radians(30.0)
        bound = (-r * math.sin(low)
                 + math.sqrt(orbit ** 2 - (r * math.cos(low)) ** 2))
        for edges in snapshot.gsl_edges.values():
            if edges.is_connected:
                assert edges.lengths_m.max() <= bound
