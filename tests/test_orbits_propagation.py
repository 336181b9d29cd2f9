"""Tests for the orbit oracle's two-body propagation
(``tests/_orbit_oracle.py``)."""

import math

import numpy as np
import pytest

from repro.geo.constants import EARTH_MU_M3_PER_S2, WGS72
from repro.orbits.kepler import KeplerianElements

from _orbit_oracle import (
    OrbitState,
    perifocal_to_eci_matrix,
    period_s,
    propagate_to_ecef,
    propagate_to_eci,
)


@pytest.fixture
def circular_leo() -> KeplerianElements:
    return KeplerianElements.circular(550_000.0, 53.0)


class TestPerifocalMatrix:
    def test_identity_for_zero_angles(self):
        el = KeplerianElements(semi_major_axis_m=7e6)
        np.testing.assert_allclose(perifocal_to_eci_matrix(el), np.eye(3),
                                   atol=1e-15)

    def test_orthonormal(self):
        el = KeplerianElements(semi_major_axis_m=7e6,
                               inclination_rad=1.0, raan_rad=2.0,
                               arg_periapsis_rad=0.5)
        rot = perifocal_to_eci_matrix(el)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)

    def test_determinant_plus_one(self):
        el = KeplerianElements(semi_major_axis_m=7e6,
                               inclination_rad=0.9, raan_rad=4.0)
        assert np.linalg.det(perifocal_to_eci_matrix(el)) == \
            pytest.approx(1.0)


class TestCircularPropagation:
    def test_radius_constant(self, circular_leo):
        radii = [propagate_to_eci(circular_leo, t).radius_m
                 for t in np.linspace(0, period_s(circular_leo), 17)]
        np.testing.assert_allclose(
            radii, circular_leo.semi_major_axis_m, rtol=1e-12)

    def test_speed_matches_vis_viva(self, circular_leo):
        state = propagate_to_eci(circular_leo, 100.0)
        expected = math.sqrt(
            EARTH_MU_M3_PER_S2 / circular_leo.semi_major_axis_m)
        assert state.speed_m_per_s == pytest.approx(expected, rel=1e-12)

    def test_returns_to_start_after_period(self, circular_leo):
        start = propagate_to_eci(circular_leo, 0.0)
        end = propagate_to_eci(circular_leo, period_s(circular_leo))
        np.testing.assert_allclose(end.position_m, start.position_m,
                                   atol=1.0)

    def test_half_period_is_opposite(self, circular_leo):
        start = propagate_to_eci(circular_leo, 0.0)
        half = propagate_to_eci(circular_leo, period_s(circular_leo) / 2.0)
        np.testing.assert_allclose(half.position_m, -start.position_m,
                                   atol=1.0)

    def test_velocity_perpendicular_to_position(self, circular_leo):
        state = propagate_to_eci(circular_leo, 321.0)
        dot = float(np.dot(state.position_m, state.velocity_m_per_s))
        assert abs(dot) < 1.0  # numerically ~0 for circular orbits

    def test_max_z_bounded_by_inclination(self, circular_leo):
        max_z = max(
            abs(propagate_to_eci(circular_leo, t).position_m[2])
            for t in np.linspace(0, period_s(circular_leo), 200))
        bound = circular_leo.semi_major_axis_m * math.sin(
            circular_leo.inclination_rad)
        assert max_z <= bound * (1 + 1e-9)
        assert max_z > bound * 0.99  # and the bound is reached

    def test_equatorial_orbit_stays_in_plane(self):
        el = KeplerianElements.circular(550_000.0, 0.0)
        for t in [0.0, 1000.0, 3000.0]:
            assert propagate_to_eci(el, t).position_m[2] == pytest.approx(
                0.0, abs=1e-6)


class TestEllipticalPropagation:
    def test_apoapsis_and_periapsis_radii(self):
        a, e = 8e6, 0.2
        el = KeplerianElements(semi_major_axis_m=a, eccentricity=e)
        peri = propagate_to_eci(el, 0.0)  # mean anomaly 0 = periapsis
        assert peri.radius_m == pytest.approx(a * (1 - e), rel=1e-9)
        apo = propagate_to_eci(el, period_s(el) / 2.0)
        assert apo.radius_m == pytest.approx(a * (1 + e), rel=1e-9)

    def test_faster_at_periapsis(self):
        el = KeplerianElements(semi_major_axis_m=8e6, eccentricity=0.3)
        v_peri = propagate_to_eci(el, 0.0).speed_m_per_s
        v_apo = propagate_to_eci(el, period_s(el) / 2.0).speed_m_per_s
        assert v_peri > v_apo

    def test_vis_viva_everywhere(self):
        el = KeplerianElements(semi_major_axis_m=7.5e6, eccentricity=0.4)
        for t in np.linspace(0, period_s(el), 13):
            state = propagate_to_eci(el, float(t))
            expected = math.sqrt(EARTH_MU_M3_PER_S2
                                 * (2.0 / state.radius_m
                                    - 1.0 / el.semi_major_axis_m))
            assert state.speed_m_per_s == pytest.approx(expected, rel=1e-9)


class TestEcefPropagation:
    def test_ecef_radius_equals_eci_radius(self, circular_leo):
        eci = propagate_to_eci(circular_leo, 500.0)
        ecef = propagate_to_ecef(circular_leo, 500.0)
        assert ecef.radius_m == pytest.approx(eci.radius_m, rel=1e-12)

    def test_frames_agree_at_epoch(self, circular_leo):
        eci = propagate_to_eci(circular_leo, 0.0)
        ecef = propagate_to_ecef(circular_leo, 0.0)
        np.testing.assert_allclose(ecef.position_m, eci.position_m)

    def test_frames_diverge_later(self, circular_leo):
        eci = propagate_to_eci(circular_leo, 600.0)
        ecef = propagate_to_ecef(circular_leo, 600.0)
        assert np.linalg.norm(eci.position_m - ecef.position_m) > 1000.0


class TestOrbitState:
    def test_properties(self):
        state = OrbitState(position_m=np.array([3.0, 4.0, 0.0]),
                           velocity_m_per_s=np.array([0.0, 0.0, 2.0]),
                           time_s=1.0)
        assert state.radius_m == 5.0
        assert state.speed_m_per_s == 2.0
