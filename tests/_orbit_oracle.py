"""Independent orbit oracle: the general two-body propagator, the
anomaly conversions and the TLE parser the product is validated against.

Paper §3.1 checks Hypatia's generated TLEs with pyephem, a validator
outside the tool.  This module stands in for it: it shares no code with
``Constellation``'s circular-orbit position kernel or with
``generate_tle``'s field formatting (only the element container, the
angle wrap and the checksum rule are imported), so
``generate_tle`` -> :func:`parse_tle` -> :func:`propagate_to_eci` against
``Constellation.positions_eci_m`` compares two different implementations.

Shared by ``tests/`` and ``benchmarks/`` (which put this directory on
``sys.path``, as they do for ``_fluid_oracle`` and ``_seed_transport``).

Accuracy note (paper §3.2): the ns-3 model accrues 1-3 km of error per day
against true trajectories; the paper argues this is immaterial for
simulations under a few hours.  Two-body propagation of the filings'
*nominal* circular orbits is the same class of approximation — the dominant
omitted term (J2 nodal precession) moves a 550 km / 53 deg orbit's node by
about 5 degrees per day, i.e. ~0.01 degrees over a 200 s experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro.geo.constants import (EARTH_MU_M3_PER_S2,
                                 EARTH_ROTATION_RATE_RAD_PER_S)
from repro.orbits.kepler import KeplerianElements, wrap_angle
from repro.orbits.tle import TLE, tle_checksum

TWO_PI = 2.0 * math.pi


# --- Two-body helpers --------------------------------------------------

def orbital_period_s(semi_major_axis_m: float,
                     mu_m3_per_s2: float = EARTH_MU_M3_PER_S2) -> float:
    """Kepler's third law: ``T = 2*pi * sqrt(a^3 / mu)``."""
    if semi_major_axis_m <= 0.0:
        raise ValueError("semi-major axis must be positive")
    return TWO_PI * math.sqrt(semi_major_axis_m ** 3 / mu_m3_per_s2)


def orbital_velocity_m_per_s(semi_major_axis_m: float,
                             mu_m3_per_s2: float = EARTH_MU_M3_PER_S2) -> float:
    """Circular orbital velocity ``v = sqrt(mu / a)`` (m/s).

    At h = 550 km this is ~7.6 km/s, i.e. more than 27,000 km/h — the paper's
    headline satellite speed (§2.3).
    """
    if semi_major_axis_m <= 0.0:
        raise ValueError("semi-major axis must be positive")
    return math.sqrt(mu_m3_per_s2 / semi_major_axis_m)


def semi_major_axis_from_period(period_s: float,
                                mu_m3_per_s2: float = EARTH_MU_M3_PER_S2
                                ) -> float:
    """Invert Kepler's third law: the ``a`` giving orbital period ``T``."""
    if period_s <= 0.0:
        raise ValueError("period must be positive")
    return (mu_m3_per_s2 * (period_s / TWO_PI) ** 2) ** (1.0 / 3.0)


def period_s(elements: KeplerianElements) -> float:
    """Orbital period via Kepler's third law (seconds)."""
    return orbital_period_s(elements.semi_major_axis_m,
                            elements.mu_m3_per_s2)


def mean_anomaly_at(elements: KeplerianElements, time_s: float) -> float:
    """Mean anomaly after ``time_s`` seconds of unperturbed motion."""
    return wrap_angle(elements.mean_anomaly_rad
                      + elements.mean_motion_rad_per_s * time_s)


def with_mean_anomaly(elements: KeplerianElements,
                      mean_anomaly_rad: float) -> KeplerianElements:
    """A copy of ``elements`` with a different mean anomaly."""
    return replace(elements, mean_anomaly_rad=wrap_angle(mean_anomaly_rad))


def mean_to_eccentric_anomaly(mean_anomaly_rad: float, eccentricity: float,
                              tolerance: float = 1e-12,
                              max_iterations: int = 50) -> float:
    """Solve Kepler's equation ``M = E - e*sin(E)`` for ``E``.

    Uses Newton-Raphson with the standard starting guess; converges
    quadratically for all e < 1.  For circular orbits (e = 0) this is the
    identity.
    """
    if not 0.0 <= eccentricity < 1.0:
        raise ValueError(f"eccentricity must be in [0, 1), got {eccentricity}")
    m = wrap_angle(mean_anomaly_rad)
    if eccentricity == 0.0:
        return m
    # A good initial guess: E ~ M for small e, E ~ pi for large e.
    e_anom = m if eccentricity < 0.8 else math.pi
    for _ in range(max_iterations):
        f = e_anom - eccentricity * math.sin(e_anom) - m
        f_prime = 1.0 - eccentricity * math.cos(e_anom)
        delta = f / f_prime
        e_anom -= delta
        if abs(delta) < tolerance:
            break
    return wrap_angle(e_anom)


def eccentric_to_true_anomaly(eccentric_anomaly_rad: float,
                              eccentricity: float) -> float:
    """True anomaly ``nu`` from the eccentric anomaly ``E``."""
    if eccentricity == 0.0:
        return wrap_angle(eccentric_anomaly_rad)
    half_e = eccentric_anomaly_rad / 2.0
    nu = 2.0 * math.atan2(
        math.sqrt(1.0 + eccentricity) * math.sin(half_e),
        math.sqrt(1.0 - eccentricity) * math.cos(half_e),
    )
    return wrap_angle(nu)


def true_to_eccentric_anomaly(true_anomaly_rad: float,
                              eccentricity: float) -> float:
    """Eccentric anomaly ``E`` from the true anomaly ``nu``."""
    if eccentricity == 0.0:
        return wrap_angle(true_anomaly_rad)
    half_nu = true_anomaly_rad / 2.0
    e_anom = 2.0 * math.atan2(
        math.sqrt(1.0 - eccentricity) * math.sin(half_nu),
        math.sqrt(1.0 + eccentricity) * math.cos(half_nu),
    )
    return wrap_angle(e_anom)


def eccentric_to_mean_anomaly(eccentric_anomaly_rad: float,
                              eccentricity: float) -> float:
    """Kepler's equation forward: ``M = E - e*sin(E)``."""
    return wrap_angle(eccentric_anomaly_rad
                      - eccentricity * math.sin(eccentric_anomaly_rad))


def mean_to_true_anomaly(mean_anomaly_rad: float, eccentricity: float) -> float:
    """Compose the mean -> eccentric -> true anomaly chain."""
    e_anom = mean_to_eccentric_anomaly(mean_anomaly_rad, eccentricity)
    return eccentric_to_true_anomaly(e_anom, eccentricity)


# --- ECI -> ECEF frame rotation ---------------------------------------

def gmst_angle_rad(time_s: float, gmst_at_epoch_rad: float = 0.0) -> float:
    """Greenwich Mean Sidereal Time angle at ``time_s`` past the epoch.

    Args:
        time_s: Seconds since the simulation epoch.
        gmst_at_epoch_rad: GMST at the epoch itself.  Simulations are
            invariant to this offset (it shifts all longitudes uniformly), so
            it defaults to zero.

    Returns:
        The rotation angle of the Earth in radians, wrapped to [0, 2*pi).
    """
    angle = gmst_at_epoch_rad + EARTH_ROTATION_RATE_RAD_PER_S * time_s
    return angle % (2.0 * math.pi)


def rotation_about_z(angle_rad: float) -> np.ndarray:
    """Right-handed rotation matrix about the +Z axis by ``angle_rad``."""
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([
        [c, s, 0.0],
        [-s, c, 0.0],
        [0.0, 0.0, 1.0],
    ])


def eci_to_ecef(position_eci_m: np.ndarray, time_s: float,
                gmst_at_epoch_rad: float = 0.0) -> np.ndarray:
    """Rotate an ECI position vector into the ECEF frame at ``time_s``.

    Accepts a single 3-vector or an (N, 3) array of vectors.
    """
    theta = gmst_angle_rad(time_s, gmst_at_epoch_rad)
    rot = rotation_about_z(theta)
    return np.asarray(position_eci_m) @ rot.T


# --- Propagation --------------------------------------------------------

@dataclass(frozen=True)
class OrbitState:
    """Position and velocity of an orbiting object at one instant.

    Attributes:
        position_m: 3-vector position in the requested frame (meters).
        velocity_m_per_s: 3-vector velocity in the requested frame (m/s).
        time_s: Seconds past the epoch this state is valid at.
    """

    position_m: np.ndarray
    velocity_m_per_s: np.ndarray
    time_s: float

    @property
    def speed_m_per_s(self) -> float:
        """Magnitude of the velocity vector."""
        return float(np.linalg.norm(self.velocity_m_per_s))

    @property
    def radius_m(self) -> float:
        """Distance from the Earth's center."""
        return float(np.linalg.norm(self.position_m))


def perifocal_to_eci_matrix(elements: KeplerianElements) -> np.ndarray:
    """Rotation matrix taking perifocal (PQW) coordinates to ECI.

    The composition R3(-RAAN) * R1(-i) * R3(-argp), written out explicitly
    to avoid three matrix multiplications per call.
    """
    cos_o = math.cos(elements.raan_rad)
    sin_o = math.sin(elements.raan_rad)
    cos_i = math.cos(elements.inclination_rad)
    sin_i = math.sin(elements.inclination_rad)
    cos_w = math.cos(elements.arg_periapsis_rad)
    sin_w = math.sin(elements.arg_periapsis_rad)
    return np.array([
        [cos_o * cos_w - sin_o * sin_w * cos_i,
         -cos_o * sin_w - sin_o * cos_w * cos_i,
         sin_o * sin_i],
        [sin_o * cos_w + cos_o * sin_w * cos_i,
         -sin_o * sin_w + cos_o * cos_w * cos_i,
         -cos_o * sin_i],
        [sin_w * sin_i,
         cos_w * sin_i,
         cos_i],
    ])


def _perifocal_state(elements: KeplerianElements,
                     time_s: float) -> Tuple[np.ndarray, np.ndarray]:
    """Position/velocity in the perifocal frame after ``time_s`` seconds."""
    a = elements.semi_major_axis_m
    e = elements.eccentricity
    mu = elements.mu_m3_per_s2
    mean_anomaly = mean_anomaly_at(elements, time_s)
    e_anom = mean_to_eccentric_anomaly(mean_anomaly, e)
    nu = eccentric_to_true_anomaly(e_anom, e)
    # Orbit radius at this true anomaly.
    r = a * (1.0 - e * math.cos(e_anom))
    cos_nu, sin_nu = math.cos(nu), math.sin(nu)
    position = np.array([r * cos_nu, r * sin_nu, 0.0])
    # Vis-viva-consistent velocity in the perifocal frame.
    p = a * (1.0 - e * e)
    h = math.sqrt(mu * p)  # specific angular momentum
    velocity = np.array([
        -(mu / h) * sin_nu,
        (mu / h) * (e + cos_nu),
        0.0,
    ])
    return position, velocity


def propagate_to_eci(elements: KeplerianElements, time_s: float) -> OrbitState:
    """Two-body-propagate elements to an ECI state at ``time_s``."""
    position_pqw, velocity_pqw = _perifocal_state(elements, time_s)
    rot = perifocal_to_eci_matrix(elements)
    return OrbitState(
        position_m=rot @ position_pqw,
        velocity_m_per_s=rot @ velocity_pqw,
        time_s=time_s,
    )


def propagate_to_ecef(elements: KeplerianElements, time_s: float,
                      gmst_at_epoch_rad: float = 0.0) -> OrbitState:
    """Two-body-propagate elements to an ECEF state at ``time_s``.

    The returned velocity is the ECI velocity rotated into the ECEF frame
    (i.e. it does not subtract the frame's own rotation); for the link-length
    geometry this framework needs, only positions matter.
    """
    eci = propagate_to_eci(elements, time_s)
    return OrbitState(
        position_m=eci_to_ecef(eci.position_m, time_s, gmst_at_epoch_rad),
        velocity_m_per_s=eci_to_ecef(eci.velocity_m_per_s, time_s,
                                     gmst_at_epoch_rad),
        time_s=time_s,
    )


# --- TLE parsing --------------------------------------------------------

class TLEFormatError(ValueError):
    """Raised when a TLE line fails structural or checksum validation."""


def _validate_line(line: str, expected_first_char: str) -> None:
    """Check length, line number, and checksum of one TLE data line."""
    if len(line) != 69:
        raise TLEFormatError(
            f"TLE line must be 69 characters, got {len(line)}: {line!r}")
    if line[0] != expected_first_char:
        raise TLEFormatError(
            f"expected line {expected_first_char}, got {line[0]!r}")
    expected = tle_checksum(line)
    actual = line[68]
    if not actual.isdigit() or int(actual) != expected:
        raise TLEFormatError(
            f"checksum mismatch: computed {expected}, line carries {actual!r}")


def parse_tle(name: str, line1: str, line2: str
              ) -> Tuple[KeplerianElements, int, Tuple[int, float]]:
    """Parse a TLE back into Keplerian elements.

    Returns:
        ``(elements, catalog_number, (epoch_year, epoch_day))``.

    Raises:
        TLEFormatError: On malformed lines or checksum failure.
    """
    _validate_line(line1, "1")
    _validate_line(line2, "2")

    catalog_1 = line1[2:7].strip()
    catalog_2 = line2[2:7].strip()
    if catalog_1 != catalog_2:
        raise TLEFormatError(
            f"catalog numbers disagree between lines: {catalog_1} vs {catalog_2}")
    catalog_number = int(catalog_1)

    epoch_raw = line1[18:32]
    year_two_digit = int(epoch_raw[:2])
    epoch_year = 2000 + year_two_digit if year_two_digit < 57 else 1900 + year_two_digit
    epoch_day = float(epoch_raw[2:])

    inclination_deg = float(line2[8:16])
    raan_deg = float(line2[17:25])
    eccentricity = float("0." + line2[26:33].strip())
    argp_deg = float(line2[34:42])
    mean_anomaly_deg = float(line2[43:51])
    mean_motion_rev_per_day = float(line2[52:63])
    if mean_motion_rev_per_day <= 0.0:
        raise TLEFormatError("mean motion must be positive")

    # Invert Kepler III from the mean motion back to the semi-major axis.
    mean_motion_rad_s = mean_motion_rev_per_day * TWO_PI / 86_400.0
    semi_major_axis_m = (EARTH_MU_M3_PER_S2 / mean_motion_rad_s ** 2) ** (1.0 / 3.0)

    elements = KeplerianElements(
        semi_major_axis_m=semi_major_axis_m,
        eccentricity=eccentricity,
        inclination_rad=math.radians(inclination_deg),
        raan_rad=wrap_angle(math.radians(raan_deg)),
        arg_periapsis_rad=wrap_angle(math.radians(argp_deg)),
        mean_anomaly_rad=wrap_angle(math.radians(mean_anomaly_deg)),
    )
    _ = name  # line 0 carries no orbital information
    return elements, catalog_number, (epoch_year, epoch_day)


def read_tle_file(path) -> List[TLE]:
    """Read a 3-line-element file back into :class:`TLE` objects.

    Every element set's checksums and structure are validated on read.

    Raises:
        TLEFormatError: On truncated groups or invalid lines.
    """
    with open(path) as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if len(lines) % 3 != 0:
        raise TLEFormatError(
            f"TLE file must hold 3-line groups; got {len(lines)} lines")
    tles: List[TLE] = []
    for i in range(0, len(lines), 3):
        name, line1, line2 = lines[i:i + 3]
        _validate_line(line1, "1")
        _validate_line(line2, "2")
        tles.append(TLE(name=name, line1=line1, line2=line2))
    return tles
