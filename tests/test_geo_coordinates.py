"""Tests for coordinate frames and conversions (the ECI -> ECEF rotation
is the orbit oracle's, ``tests/_orbit_oracle.py``)."""

import math

import numpy as np
import pytest

from repro.geo.constants import (
    EARTH_ROTATION_RATE_RAD_PER_S,
    SIDEREAL_DAY_S,
    WGS84,
)
from repro.geo.coordinates import (
    GeodeticPosition,
    ecef_to_geodetic,
    geodetic_to_ecef,
)
from repro.ground.stations import GroundStation
from repro.ground.visibility import azimuth_elevation_deg

from _orbit_oracle import eci_to_ecef, gmst_angle_rad, rotation_about_z


class TestGeodeticPosition:
    def test_valid_position(self):
        pos = GeodeticPosition(45.0, -120.0, 1000.0)
        assert pos.latitude_deg == 45.0
        assert pos.longitude_deg == -120.0
        assert pos.altitude_m == 1000.0

    def test_latitude_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GeodeticPosition(91.0, 0.0)
        with pytest.raises(ValueError):
            GeodeticPosition(-90.5, 0.0)

    def test_longitude_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GeodeticPosition(0.0, 181.0)

    def test_radian_properties(self):
        pos = GeodeticPosition(90.0, -180.0)
        assert pos.latitude_rad == pytest.approx(math.pi / 2)
        assert pos.longitude_rad == pytest.approx(-math.pi)


class TestGmst:
    def test_zero_at_epoch_by_default(self):
        assert gmst_angle_rad(0.0) == 0.0

    def test_full_rotation_after_sidereal_day(self):
        angle = gmst_angle_rad(SIDEREAL_DAY_S)
        assert angle == pytest.approx(0.0, abs=1e-9) or \
            angle == pytest.approx(2 * math.pi, abs=1e-9)

    def test_quarter_rotation(self):
        angle = gmst_angle_rad(SIDEREAL_DAY_S / 4)
        assert angle == pytest.approx(math.pi / 2, rel=1e-9)

    def test_epoch_offset_carries_through(self):
        assert gmst_angle_rad(0.0, gmst_at_epoch_rad=1.0) == pytest.approx(1.0)

    def test_wraps_to_two_pi(self):
        angle = gmst_angle_rad(10 * SIDEREAL_DAY_S + 100.0)
        assert 0.0 <= angle < 2 * math.pi


class TestRotationAboutZ:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(rotation_about_z(0.0), np.eye(3))

    def test_rotates_x_toward_minus_y(self):
        # This convention takes ECI -> ECEF: a point fixed in ECI appears
        # to move westward (toward -y) as the Earth rotates eastward.
        rot = rotation_about_z(math.pi / 2)
        rotated = rot @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(rotated, [0.0, -1.0, 0.0], atol=1e-12)

    def test_orthonormal(self):
        rot = rotation_about_z(0.7)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)


class TestEciEcefRoundTrip:
    def test_round_trip(self):
        position = np.array([7_000_000.0, 1_000_000.0, 2_000_000.0])
        t = 1234.5
        back = eci_to_ecef(eci_to_ecef(position, t), -t)
        np.testing.assert_allclose(back, position, rtol=1e-12)

    def test_no_rotation_at_epoch(self):
        position = np.array([7e6, 0.0, 0.0])
        np.testing.assert_allclose(eci_to_ecef(position, 0.0), position)

    def test_z_component_unchanged(self):
        position = np.array([1e6, 2e6, 3e6])
        converted = eci_to_ecef(position, 999.0)
        assert converted[2] == pytest.approx(3e6)

    def test_norm_preserved(self):
        position = np.array([5e6, -3e6, 4e6])
        converted = eci_to_ecef(position, 777.0)
        assert np.linalg.norm(converted) == pytest.approx(
            np.linalg.norm(position))

    def test_batch_conversion(self):
        positions = np.array([[7e6, 0.0, 0.0], [0.0, 7e6, 0.0]])
        converted = eci_to_ecef(positions, 100.0)
        assert converted.shape == (2, 3)


class TestGeodeticEcef:
    def test_equator_prime_meridian(self):
        ecef = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 0.0))
        np.testing.assert_allclose(
            ecef, [WGS84.semi_major_axis_m, 0.0, 0.0], atol=1e-6)

    def test_north_pole(self):
        ecef = geodetic_to_ecef(GeodeticPosition(90.0, 0.0, 0.0))
        assert ecef[2] == pytest.approx(
            WGS84.semi_major_axis_m * (1.0 - WGS84.flattening), rel=1e-9)
        assert abs(ecef[0]) < 1e-6

    def test_altitude_adds_radially_at_equator(self):
        ecef = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 1000.0))
        assert ecef[0] == pytest.approx(
            WGS84.semi_major_axis_m + 1000.0, rel=1e-12)

    def test_round_trip_various_points(self):
        for lat, lon, alt in [(45.0, 45.0, 0.0), (-33.9, 151.2, 100.0),
                              (59.93, 30.34, 550_000.0), (-80.0, -170.0, 5.0),
                              (0.001, 179.99, 1.0)]:
            original = GeodeticPosition(lat, lon, alt)
            back = ecef_to_geodetic(geodetic_to_ecef(original))
            assert back.latitude_deg == pytest.approx(lat, abs=1e-9)
            assert back.longitude_deg == pytest.approx(lon, abs=1e-9)
            assert back.altitude_m == pytest.approx(alt, abs=1e-3)

    def test_round_trip_near_pole(self):
        original = GeodeticPosition(89.9999, 12.0, 100.0)
        back = ecef_to_geodetic(geodetic_to_ecef(original))
        assert back.latitude_deg == pytest.approx(89.9999, abs=1e-6)


class TestTopocentricEnu:
    """The observer's East-North-Up frame, through the product's
    azimuth/elevation view of it."""

    def test_overhead_target_is_pure_up(self):
        observer = GroundStation(0, "origin", GeodeticPosition(0.0, 0.0))
        target = geodetic_to_ecef(GeodeticPosition(0.0, 0.0, 500_000.0))
        _, elevations = azimuth_elevation_deg(observer, target)
        assert elevations[0] == pytest.approx(90.0, abs=1e-6)

    def test_northern_target_has_positive_north(self):
        observer = GroundStation(0, "origin", GeodeticPosition(0.0, 0.0))
        target = geodetic_to_ecef(GeodeticPosition(1.0, 0.0, 0.0))
        azimuths, _ = azimuth_elevation_deg(observer, target)
        assert azimuths[0] == pytest.approx(0.0, abs=1e-6)

    def test_eastern_target_has_positive_east(self):
        observer = GroundStation(0, "origin", GeodeticPosition(0.0, 0.0))
        target = geodetic_to_ecef(GeodeticPosition(0.0, 1.0, 0.0))
        azimuths, _ = azimuth_elevation_deg(observer, target)
        assert azimuths[0] == pytest.approx(90.0, abs=1e-6)


class TestEllipsoid:
    def test_wgs84_flattening(self):
        assert WGS84.flattening == pytest.approx(1 / 298.257223563)

    def test_semi_minor_axis(self):
        polar_radius_m = WGS84.semi_major_axis_m * (1.0 - WGS84.flattening)
        assert polar_radius_m == pytest.approx(6_356_752.3142, abs=0.01)

    def test_eccentricity_squared(self):
        assert WGS84.eccentricity_squared == pytest.approx(0.00669438,
                                                           rel=1e-5)

    def test_earth_rotation_rate(self):
        # One revolution per sidereal day, ~7.292e-5 rad/s.
        assert EARTH_ROTATION_RATE_RAD_PER_S == pytest.approx(7.2921e-5,
                                                              rel=1e-4)
