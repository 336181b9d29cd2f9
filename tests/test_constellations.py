"""Tests for constellation definitions (paper Table 1) and the builder."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constellations.builder import Constellation
from repro.constellations.definitions import (
    ALL_SHELLS,
    KUIPER_K1,
    KUIPER_SHELLS,
    STARLINK_S1,
    STARLINK_SHELLS,
    TELESAT_SHELLS,
    TELESAT_T1,
    shell_by_name,
)
from repro.orbits.shell import SatelliteIndex, Shell


class TestTable1:
    """The exact shell parameters of paper Table 1."""

    def test_starlink_phase1_totals(self):
        assert STARLINK_SHELLS.total_satellites == 4409

    def test_starlink_s1(self):
        assert STARLINK_S1.num_orbits == 72
        assert STARLINK_S1.satellites_per_orbit == 22
        assert STARLINK_S1.altitude_km == 550.0
        assert STARLINK_S1.inclination_deg == 53.0

    def test_kuiper_totals(self):
        assert KUIPER_SHELLS.total_satellites == 3236

    def test_kuiper_k1(self):
        assert KUIPER_K1.num_orbits == 34
        assert KUIPER_K1.satellites_per_orbit == 34
        assert KUIPER_K1.altitude_km == 630.0
        assert KUIPER_K1.inclination_deg == 51.9

    def test_kuiper_all_inclinations_under_52(self):
        # Paper §2.2: "Kuiper entirely eschews connectivity near the
        # poles, with all its shells having inclinations under 52 deg."
        for shell in KUIPER_SHELLS.shells:
            assert shell.inclination_deg < 52.0

    def test_telesat_t1_polar(self):
        assert TELESAT_T1.inclination_deg == pytest.approx(98.98)
        assert TELESAT_T1.num_orbits == 27
        assert TELESAT_T1.satellites_per_orbit == 13

    def test_min_elevations(self):
        # Paper §5.1: Telesat 10, Starlink 25, Kuiper 30.
        assert TELESAT_SHELLS.min_elevation_deg == 10.0
        assert STARLINK_SHELLS.min_elevation_deg == 25.0
        assert KUIPER_SHELLS.min_elevation_deg == 30.0

    def test_four_isls_everywhere(self):
        for spec in ALL_SHELLS.values():
            assert spec.isls_per_satellite == 4

    def test_telesat_fewest_satellites(self):
        # Paper §5.1 compares the simulated first shells: T1 has less than
        # a third of K1's and less than a fourth of S1's satellites.
        t1 = TELESAT_T1.total_satellites
        assert t1 == 351
        assert t1 < KUIPER_K1.total_satellites / 3
        assert t1 < STARLINK_S1.total_satellites / 4

    def test_telesat_totals(self):
        assert TELESAT_SHELLS.total_satellites == 1671

    def test_shell_lookup(self):
        assert shell_by_name("S3").num_orbits == 8
        assert shell_by_name("K2").satellites_per_orbit == 36
        with pytest.raises(KeyError):
            shell_by_name("Z9")

    def test_first_shells(self):
        assert STARLINK_SHELLS.first_shell().name == "S1"
        assert KUIPER_SHELLS.first_shell().name == "K1"
        assert TELESAT_SHELLS.first_shell().name == "T1"


class TestConstellationBuilder:
    def test_satellite_count(self, small_constellation):
        assert len(small_constellation) == 100
        assert small_constellation.num_satellites == 100

    def test_global_ids_sequential(self, small_constellation):
        for i, sat in enumerate(small_constellation.satellites):
            assert sat.satellite_id == i

    def test_satellite_id_lookup(self, small_constellation):
        sat_id = small_constellation.satellite_id(
            "X1", SatelliteIndex(3, 5))
        assert sat_id == 3 * 10 + 5
        assert small_constellation.satellite(sat_id).index == \
            SatelliteIndex(3, 5)

    def test_multi_shell_offsets(self, small_shell):
        second = Shell(name="X2", num_orbits=4, satellites_per_orbit=4,
                       altitude_m=700_000.0, inclination_deg=70.0)
        constellation = Constellation([small_shell, second])
        assert constellation.num_satellites == 100 + 16
        first_of_second = constellation.satellite_id(
            "X2", SatelliteIndex(0, 0))
        assert first_of_second == 100
        assert constellation.satellites[105].shell_name == "X2"
        assert constellation.satellites[99].shell_name == "X1"

    def test_duplicate_shell_names_rejected(self, small_shell):
        with pytest.raises(ValueError):
            Constellation([small_shell, small_shell])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Constellation([])

    def test_positions_shape(self, small_constellation):
        positions = small_constellation.positions_ecef_m(0.0)
        assert positions.shape == (100, 3)

    def test_positions_at_orbit_radius(self, small_constellation):
        positions = small_constellation.positions_ecef_m(100.0)
        radii = np.linalg.norm(positions, axis=1)
        expected = small_constellation.satellites[0].elements.semi_major_axis_m
        np.testing.assert_allclose(radii, expected, rtol=1e-12)

    def test_vectorized_matches_scalar_propagation(self, small_constellation):
        from _orbit_oracle import propagate_to_ecef
        t = 777.0
        batch = small_constellation.positions_ecef_m(t)
        for sat_id in [0, 17, 99]:
            scalar = propagate_to_ecef(
                small_constellation.satellites[sat_id].elements, t).position_m
            np.testing.assert_allclose(batch[sat_id], scalar, atol=1e-3)

    def test_satellites_move(self, small_constellation):
        p0 = small_constellation.positions_ecef_m(0.0)
        p1 = small_constellation.positions_ecef_m(1.0)
        displacement = np.linalg.norm(p1 - p0, axis=1)
        # ~7.6 km/s orbital speed (minus Earth-rotation component).
        assert (displacement > 5000).all()
        assert (displacement < 9000).all()

    def test_eci_positions_ignore_earth_rotation(self, small_constellation):
        eci = small_constellation.positions_eci_m(0.0)
        ecef = small_constellation.positions_ecef_m(0.0)
        np.testing.assert_allclose(eci, ecef)  # frames aligned at epoch

    def test_tles_generated_for_all(self, small_constellation):
        tles = small_constellation.generate_tles()
        assert len(tles) == 100
        assert tles[5].name == small_constellation.satellites[5].name

    def test_tles_fly_the_constellations_trajectory(self,
                                                     small_constellation):
        """Paper §3.1's validation, with the oracle as pyephem: parse
        the exported TLEs and propagate them independently — they must
        land where the product's own position kernel puts the satellites
        (200 m: the TLE fields' rounding, as in ``test_orbits_tle``)."""
        from _orbit_oracle import parse_tle, propagate_to_eci
        tles = small_constellation.generate_tles()
        for time_s in (0.0, 500.0, 3000.0):
            product = small_constellation.positions_eci_m(time_s)
            for sat_id in (0, 17, 99):
                parsed, _, _ = parse_tle(*tles[sat_id].as_lines())
                oracle = propagate_to_eci(parsed, time_s).position_m
                assert np.linalg.norm(product[sat_id] - oracle) < 200.0

    def test_describe_mentions_shells(self, small_constellation):
        text = small_constellation.describe()
        assert "X1" in text
        assert "100" in text


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def _element_arrays(constellation: Constellation):
    return (constellation._radius_m, constellation._raan_rad,
            constellation._inclination_rad, constellation._anomaly_rad,
            constellation._mean_motion)


def _verdict(validate, pairs, num_satellites):
    """The message ``validate`` raises on ``pairs``, or None."""
    try:
        validate(pairs, num_satellites)
    except ValueError as error:
        return str(error)
    return None


def _assert_matches_loop_oracle(constellation: Constellation) -> None:
    """Element arrays, ISL pairs of all three builders and per-satellite
    objects equal the per-satellite loops of ``_constellation_oracle``,
    bit for bit."""
    from repro.topology.isl import no_isls, plus_grid_isls, single_ring_isls

    from _constellation_oracle import (loop_element_arrays,
                                       loop_plus_grid_isls,
                                       loop_satellites,
                                       loop_single_ring_isls)
    for mine, reference in zip(_element_arrays(constellation),
                               loop_element_arrays(constellation)):
        assert _bits(mine) == _bits(reference)
    for pairs, expected in (
            (plus_grid_isls(constellation),
             loop_plus_grid_isls(constellation)),
            (single_ring_isls(constellation),
             loop_single_ring_isls(constellation)),
            (no_isls(constellation), np.empty((0, 2), dtype=np.int64))):
        assert pairs.dtype == np.int64
        assert pairs.shape == expected.shape
        assert np.array_equal(pairs, expected)
    satellites = loop_satellites(constellation)
    assert constellation.satellites == satellites
    assert _bits([dataclasses.astuple(sat.elements)
                  for sat in constellation.satellites]) == _bits(
        [dataclasses.astuple(sat.elements) for sat in satellites])


class TestArrayBuildOracle:
    """The element arrays and ISL builders are array code; the
    per-satellite loops they replaced are the oracle."""

    @pytest.mark.parametrize("name", [shell.name
                                      for spec in ALL_SHELLS.values()
                                      for shell in spec.shells])
    def test_table1_shell_matches_loop_oracle(self, name):
        _assert_matches_loop_oracle(Constellation([shell_by_name(name)]))

    def test_all_table1_shells_together_match_loop_oracle(self):
        _assert_matches_loop_oracle(Constellation(
            [shell for spec in ALL_SHELLS.values() for shell in spec.shells]))

    @pytest.mark.parametrize("orbits,per_orbit", [
        (1, 1), (1, 5), (5, 1), (2, 2), (2, 3), (3, 2)])
    def test_degenerate_shells_match_loop_oracle(self, orbits, per_orbit):
        # One or two planes (slots) wrap onto themselves or onto the same
        # neighbour twice: self-links and duplicate links must go.
        _assert_matches_loop_oracle(Constellation([
            Shell(name="D", num_orbits=orbits,
                  satellites_per_orbit=per_orbit, altitude_m=550_000.0,
                  inclination_deg=53.0, phase_offset_rel=0.5),
            Shell(name="E", num_orbits=4, satellites_per_orbit=4,
                  altitude_m=1_000_000.0, inclination_deg=70.0)]))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_walker_shells_match_loop_oracle(self, data):
        from repro.topology.isl import plus_grid_isls, validate_isl_pairs
        from repro.topology.network import LeoNetwork

        from _constellation_oracle import loop_validate_isl_pairs
        shells = [Shell(
            name=f"W{index}",
            num_orbits=data.draw(st.integers(4, 20)),
            satellites_per_orbit=data.draw(st.integers(4, 20)),
            altitude_m=data.draw(st.floats(400_000.0, 1_500_000.0)),
            inclination_deg=data.draw(st.floats(30.0, 98.0)),
            phase_offset_rel=data.draw(st.floats(0.0, 1.0,
                                                 exclude_max=True)))
            for index in range(data.draw(st.integers(1, 3)))]
        constellation = Constellation(
            shells, epoch_offset_s=data.draw(st.floats(
                -1e7, 1e7, allow_nan=False, allow_infinity=False)))
        assert constellation._satellites is None  # built on demand only
        _assert_matches_loop_oracle(constellation)

        count = constellation.num_satellites
        pairs = plus_grid_isls(constellation)
        row = data.draw(st.integers(0, len(pairs) - 1))
        duplicate = np.vstack([pairs, pairs[row, ::-1]])
        self_link = pairs.copy()
        self_link[row] = self_link[row, 0]
        out_of_range = pairs.copy()
        out_of_range[row, data.draw(st.integers(0, 1))] = data.draw(
            st.sampled_from([-1, count, count + 7]))
        for candidate in (pairs, duplicate, self_link, out_of_range,
                          pairs[:0]):
            assert _verdict(validate_isl_pairs, candidate, count) \
                == _verdict(loop_validate_isl_pairs, candidate, count)
        assert _verdict(validate_isl_pairs, duplicate, count) \
            == "duplicate ISL pairs"

        failed = data.draw(st.sets(st.integers(0, count - 1), max_size=6))
        network = LeoNetwork(constellation, [], min_elevation_deg=25.0,
                             failed_satellites=failed)
        assert np.array_equal(network.isl_pairs, np.array(
            [pair for pair in pairs.tolist()
             if pair[0] not in failed and pair[1] not in failed],
            dtype=np.int64).reshape(-1, 2))

    def test_satellites_are_built_on_demand_and_never_pickled(
            self, small_constellation):
        import pickle
        assert small_constellation._satellites is None
        assert small_constellation.satellite(37).satellite_id == 37
        assert small_constellation._satellites is not None
        clone = pickle.loads(pickle.dumps(small_constellation))
        assert clone._satellites is None
        assert clone.satellites == small_constellation.satellites
        for mine, theirs in zip(_element_arrays(clone),
                                _element_arrays(small_constellation)):
            assert _bits(mine) == _bits(theirs)
