"""Tests for Keplerian elements (product) and the two-body helpers and
anomaly conversions of the orbit oracle (``tests/_orbit_oracle.py``)."""

import math

import pytest

from repro.geo.constants import WGS72
from repro.orbits.kepler import (KeplerianElements, mean_motion_rad_per_s,
                                 wrap_angle)

from _orbit_oracle import (
    eccentric_to_mean_anomaly,
    eccentric_to_true_anomaly,
    mean_anomaly_at,
    mean_to_eccentric_anomaly,
    mean_to_true_anomaly,
    orbital_period_s,
    orbital_velocity_m_per_s,
    period_s,
    semi_major_axis_from_period,
    true_to_eccentric_anomaly,
    with_mean_anomaly,
)


class TestWrapAngle:
    def test_already_in_range(self):
        assert wrap_angle(1.0) == 1.0

    def test_negative(self):
        assert wrap_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2)

    def test_large(self):
        assert wrap_angle(5 * math.pi) == pytest.approx(math.pi)

    def test_exact_two_pi_wraps_to_zero(self):
        assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-15)


class TestKeplerianElements:
    def test_circular_constructor(self):
        el = KeplerianElements.circular(altitude_m=550_000.0,
                                        inclination_deg=53.0,
                                        raan_deg=90.0,
                                        mean_anomaly_deg=45.0)
        assert el.semi_major_axis_m == pytest.approx(
            WGS72.semi_major_axis_m + 550_000.0)
        assert el.eccentricity == 0.0
        assert el.inclination_rad == pytest.approx(math.radians(53.0))
        assert el.raan_rad == pytest.approx(math.pi / 2)
        assert el.mean_anomaly_rad == pytest.approx(math.pi / 4)

    def test_invalid_semi_major_axis(self):
        with pytest.raises(ValueError):
            KeplerianElements(semi_major_axis_m=-1.0)

    def test_invalid_eccentricity(self):
        with pytest.raises(ValueError):
            KeplerianElements(semi_major_axis_m=7e6, eccentricity=1.0)
        with pytest.raises(ValueError):
            KeplerianElements(semi_major_axis_m=7e6, eccentricity=-0.1)

    def test_invalid_inclination(self):
        with pytest.raises(ValueError):
            KeplerianElements(semi_major_axis_m=7e6,
                              inclination_rad=3.5)

    def test_period_at_550km_is_about_96_minutes(self):
        # The paper (§2.3) quotes ~100 minutes for LEO orbits.
        el = KeplerianElements.circular(550_000.0, 53.0)
        assert 90 * 60 < period_s(el) < 100 * 60

    def test_mean_anomaly_advances_linearly(self):
        el = KeplerianElements.circular(550_000.0, 53.0)
        quarter = period_s(el) / 4.0
        assert mean_anomaly_at(el, quarter) == pytest.approx(math.pi / 2,
                                                             rel=1e-9)

    def test_mean_anomaly_wraps_after_full_period(self):
        el = KeplerianElements.circular(550_000.0, 53.0,
                                        mean_anomaly_deg=10.0)
        after = mean_anomaly_at(el, period_s(el))
        assert after == pytest.approx(math.radians(10.0), abs=1e-9)

    def test_with_mean_anomaly(self):
        el = KeplerianElements.circular(550_000.0, 53.0)
        el2 = with_mean_anomaly(el, 1.5)
        assert el2.mean_anomaly_rad == 1.5
        assert el2.semi_major_axis_m == el.semi_major_axis_m

    def test_mean_motion_rev_per_day_realistic(self):
        # LEO satellites complete ~15 revolutions per day.
        el = KeplerianElements.circular(550_000.0, 53.0)
        assert 14.5 < el.mean_motion_rev_per_day < 15.7


class TestKeplerLaws:
    def test_period_formula(self):
        a = 7e6
        t = orbital_period_s(a)
        assert t == pytest.approx(2 * math.pi * math.sqrt(a ** 3 / 3.986008e14))

    def test_period_inverse(self):
        a = 6_928_135.0
        assert semi_major_axis_from_period(orbital_period_s(a)) == \
            pytest.approx(a, rel=1e-12)

    def test_higher_orbit_slower(self):
        low = orbital_velocity_m_per_s(6_928_135.0)
        high = orbital_velocity_m_per_s(7_703_135.0)
        assert low > high

    def test_velocity_at_550km_exceeds_27000_kmph(self):
        # Paper §2.3: "the orbital velocity is more than 27,000 km/hr".
        v = orbital_velocity_m_per_s(WGS72.semi_major_axis_m + 550_000.0)
        assert v * 3.6 > 27_000.0

    def test_mean_motion_consistent_with_period(self):
        a = 7_008_135.0
        assert mean_motion_rad_per_s(a) * orbital_period_s(a) == \
            pytest.approx(2 * math.pi)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            orbital_period_s(0.0)
        with pytest.raises(ValueError):
            orbital_velocity_m_per_s(-5.0)
        with pytest.raises(ValueError):
            semi_major_axis_from_period(0.0)
        with pytest.raises(ValueError):
            mean_motion_rad_per_s(-1.0)


class TestAnomalyConversions:
    def test_circular_orbit_identity(self):
        for m in [0.0, 1.0, math.pi, 5.0]:
            assert mean_to_eccentric_anomaly(m, 0.0) == pytest.approx(
                wrap_angle(m))
            assert eccentric_to_true_anomaly(m, 0.0) == pytest.approx(
                wrap_angle(m))

    def test_keplers_equation_satisfied(self):
        for e in [0.01, 0.3, 0.7, 0.95]:
            for m in [0.1, 1.0, 2.5, 4.0, 6.0]:
                big_e = mean_to_eccentric_anomaly(m, e)
                assert big_e - e * math.sin(big_e) == pytest.approx(
                    wrap_angle(m), abs=1e-10)

    def test_eccentric_mean_round_trip(self):
        for e in [0.1, 0.5, 0.9]:
            for big_e in [0.5, 2.0, 4.5]:
                m = eccentric_to_mean_anomaly(big_e, e)
                assert mean_to_eccentric_anomaly(m, e) == pytest.approx(
                    big_e, abs=1e-9)

    def test_eccentric_true_round_trip(self):
        for e in [0.0, 0.2, 0.8]:
            for big_e in [0.3, 1.5, 3.0, 5.5]:
                nu = eccentric_to_true_anomaly(big_e, e)
                assert true_to_eccentric_anomaly(nu, e) == pytest.approx(
                    wrap_angle(big_e), abs=1e-9)

    def test_true_anomaly_leads_eccentric_before_apoapsis(self):
        # For 0 < E < pi the true anomaly is ahead of the eccentric one.
        nu = eccentric_to_true_anomaly(1.0, 0.5)
        assert nu > 1.0

    def test_mean_to_true_composition(self):
        e, m = 0.4, 2.0
        big_e = mean_to_eccentric_anomaly(m, e)
        assert mean_to_true_anomaly(m, e) == pytest.approx(
            eccentric_to_true_anomaly(big_e, e))

    def test_invalid_eccentricity_rejected(self):
        with pytest.raises(ValueError):
            mean_to_eccentric_anomaly(1.0, 1.0)
