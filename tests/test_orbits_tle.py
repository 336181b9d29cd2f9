"""Tests for TLE generation (paper §3.1's TLE utility), validated with
the oracle parser / propagator of ``tests/_orbit_oracle.py``."""

import math

import pytest

from repro.orbits.kepler import KeplerianElements
from repro.orbits.tle import TLE, generate_tle, tle_checksum

from _orbit_oracle import TLEFormatError, parse_tle, propagate_to_eci


@pytest.fixture
def kuiper_elements() -> KeplerianElements:
    return KeplerianElements.circular(630_000.0, 51.9, raan_deg=42.3,
                                      mean_anomaly_deg=77.7)


class TestChecksum:
    def test_iss_line1_checksum(self):
        # A real TLE line for the ISS; its checksum digit is 7.
        line = ("1 25544U 98067A   08264.51782528 -.00002182  00000-0 "
                "-11606-4 0  2927")
        assert tle_checksum(line) == 7

    def test_minus_counts_one(self):
        base = "0" * 68
        with_minus = "-" + "0" * 67
        assert tle_checksum(with_minus) == tle_checksum(base) + 1

    def test_letters_count_zero(self):
        assert tle_checksum("U" * 68) == 0


class TestGeneration:
    def test_line_lengths(self, kuiper_elements):
        tle = generate_tle(kuiper_elements, "Kuiper-0")
        assert len(tle.line1) == 69
        assert len(tle.line2) == 69

    def test_checksums_valid(self, kuiper_elements):
        tle = generate_tle(kuiper_elements, "Kuiper-0")
        assert int(tle.line1[68]) == tle_checksum(tle.line1)
        assert int(tle.line2[68]) == tle_checksum(tle.line2)

    def test_line_numbers(self, kuiper_elements):
        tle = generate_tle(kuiper_elements, "Kuiper-0")
        assert tle.line1[0] == "1"
        assert tle.line2[0] == "2"

    def test_name_truncated_to_24_chars(self, kuiper_elements):
        tle = generate_tle(kuiper_elements, "X" * 40)
        assert len(tle.name) == 24

    def test_catalog_number_range(self, kuiper_elements):
        with pytest.raises(ValueError):
            generate_tle(kuiper_elements, "sat", catalog_number=100_000)

    def test_epoch_validation(self, kuiper_elements):
        with pytest.raises(ValueError):
            generate_tle(kuiper_elements, "sat", epoch_year=1900)
        with pytest.raises(ValueError):
            generate_tle(kuiper_elements, "sat", epoch_day=0.0)

    def test_str_has_three_lines(self, kuiper_elements):
        tle = generate_tle(kuiper_elements, "sat")
        assert len(str(tle).splitlines()) == 3


class TestRoundTrip:
    def test_elements_survive_round_trip(self, kuiper_elements):
        tle = generate_tle(kuiper_elements, "Kuiper-0", catalog_number=7,
                           epoch_year=2020, epoch_day=123.5)
        parsed, catalog, (year, day) = parse_tle(*tle.as_lines())
        assert catalog == 7
        assert year == 2020
        assert day == pytest.approx(123.5)
        assert parsed.semi_major_axis_m == pytest.approx(
            kuiper_elements.semi_major_axis_m, rel=1e-7)
        assert parsed.eccentricity == pytest.approx(0.0, abs=1e-7)
        assert parsed.inclination_rad == pytest.approx(
            kuiper_elements.inclination_rad, abs=1e-5)
        assert parsed.raan_rad == pytest.approx(
            kuiper_elements.raan_rad, abs=1e-5)
        assert parsed.mean_anomaly_rad == pytest.approx(
            kuiper_elements.mean_anomaly_rad, abs=1e-5)

    def test_eccentric_orbit_round_trip(self):
        el = KeplerianElements(semi_major_axis_m=7.2e6, eccentricity=0.0012345,
                               inclination_rad=math.radians(97.6),
                               raan_rad=1.0, arg_periapsis_rad=2.0,
                               mean_anomaly_rad=3.0)
        tle = generate_tle(el, "ecc")
        parsed, _, _ = parse_tle(*tle.as_lines())
        assert parsed.eccentricity == pytest.approx(0.0012345, abs=1e-7)
        assert parsed.arg_periapsis_rad == pytest.approx(2.0, abs=1e-5)

    def test_positions_match_after_round_trip(self, kuiper_elements):
        """The regenerated constellation flies the same trajectory (the
        paper validated this property against pyephem)."""
        import numpy as np
        tle = generate_tle(kuiper_elements, "sat")
        parsed, _, _ = parse_tle(*tle.as_lines())
        for t in [0.0, 500.0, 3000.0]:
            original = propagate_to_eci(kuiper_elements, t).position_m
            regenerated = propagate_to_eci(parsed, t).position_m
            assert np.linalg.norm(original - regenerated) < 200.0


class TestParsingValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(TLEFormatError):
            parse_tle("sat", "1 short", "2 short")

    def test_bad_checksum_rejected(self, kuiper_elements):
        tle = generate_tle(kuiper_elements, "sat")
        bad = tle.line1[:68] + str((int(tle.line1[68]) + 1) % 10)
        with pytest.raises(TLEFormatError):
            parse_tle(tle.name, bad, tle.line2)

    def test_swapped_lines_rejected(self, kuiper_elements):
        tle = generate_tle(kuiper_elements, "sat")
        with pytest.raises(TLEFormatError):
            parse_tle(tle.name, tle.line2, tle.line1)

    def test_catalog_mismatch_rejected(self, kuiper_elements):
        tle_a = generate_tle(kuiper_elements, "a", catalog_number=1)
        tle_b = generate_tle(kuiper_elements, "b", catalog_number=2)
        with pytest.raises(TLEFormatError):
            parse_tle("x", tle_a.line1, tle_b.line2)

    def test_epoch_century_windowing(self, kuiper_elements):
        tle_2049 = generate_tle(kuiper_elements, "s", epoch_year=2049)
        _, _, (year, _) = parse_tle(*tle_2049.as_lines())
        assert year == 2049
        tle_1999 = generate_tle(kuiper_elements, "s", epoch_year=1999)
        _, _, (year, _) = parse_tle(*tle_1999.as_lines())
        assert year == 1999


class TestTleDataclass:
    def test_as_lines(self):
        tle = TLE(name="n", line1="1" * 69, line2="2" * 69)
        assert tle.as_lines() == ["n", "1" * 69, "2" * 69]
