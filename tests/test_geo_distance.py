"""Tests for distance and latency primitives."""

import math

import numpy as np
import pytest

from repro.geo.constants import (
    EARTH_MEAN_RADIUS_M,
    SPEED_OF_LIGHT_M_PER_S,
)
from repro.geo.coordinates import GeodeticPosition
from repro.geo.distance import (
    central_angle_rad,
    geodesic_rtt_s,
    great_circle_distance_m,
    propagation_delay_s,
)


class TestCentralAngle:
    def test_same_point(self):
        p = GeodeticPosition(10.0, 20.0)
        assert central_angle_rad(p, p) == 0.0

    def test_antipodal(self):
        a = GeodeticPosition(0.0, 0.0)
        b = GeodeticPosition(0.0, 180.0)
        assert central_angle_rad(a, b) == pytest.approx(math.pi)

    def test_quarter_circle_along_equator(self):
        a = GeodeticPosition(0.0, 0.0)
        b = GeodeticPosition(0.0, 90.0)
        assert central_angle_rad(a, b) == pytest.approx(math.pi / 2)

    def test_pole_to_equator(self):
        a = GeodeticPosition(90.0, 0.0)
        b = GeodeticPosition(0.0, 123.0)  # longitude irrelevant from pole
        assert central_angle_rad(a, b) == pytest.approx(math.pi / 2)

    def test_symmetric(self):
        a = GeodeticPosition(48.86, 2.35)
        b = GeodeticPosition(-8.84, 13.23)
        assert central_angle_rad(a, b) == central_angle_rad(b, a)


class TestGreatCircleDistance:
    def test_paris_to_luanda_known_distance(self):
        # Paris - Luanda is roughly 6,500 km along the surface.
        paris = GeodeticPosition(48.86, 2.35)
        luanda = GeodeticPosition(-8.84, 13.23)
        distance = great_circle_distance_m(paris, luanda)
        assert 6_200_000 < distance < 6_800_000


class TestPropagationDelay:
    def test_light_travels_300km_in_a_millisecond(self):
        assert propagation_delay_s(299_792.458) == pytest.approx(1e-3)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay_s(-1.0)


class TestGeodesicRtt:
    def test_antipodal_rtt_is_about_133ms(self):
        # Half circumference ~20,015 km each way -> RTT ~133.5 ms.
        a = GeodeticPosition(0.0, 0.0)
        b = GeodeticPosition(0.0, 180.0)
        rtt = geodesic_rtt_s(a, b)
        assert rtt == pytest.approx(
            2 * math.pi * EARTH_MEAN_RADIUS_M / SPEED_OF_LIGHT_M_PER_S,
            rel=1e-12)
        assert 0.130 < rtt < 0.137

    def test_nearby_points_have_tiny_rtt(self):
        a = GeodeticPosition(40.0, -74.0)
        b = GeodeticPosition(40.1, -74.1)
        assert geodesic_rtt_s(a, b) < 1e-3

    def test_lower_bound_property(self):
        # Any same-endpoint straight-line RTT through space is longer than
        # the geodesic RTT only when the path leaves the surface chord...
        # at minimum, geodesic RTT must exceed the chord RTT.
        from repro.geo.coordinates import geodetic_to_ecef
        a = GeodeticPosition(41.01, 28.98)
        b = GeodeticPosition(-1.29, 36.82)
        chord = np.linalg.norm(geodetic_to_ecef(a) - geodetic_to_ecef(b))
        chord_rtt = 2 * chord / SPEED_OF_LIGHT_M_PER_S
        assert geodesic_rtt_s(a, b) >= chord_rtt
