"""Orbital shells: uniform Walker-delta-style satellite arrangements.

Paper §2.1: "A set of orbits with the same inclination and height, and
crossing the Equator at uniform spacing from each other, is called an
orbital shell.  Satellites within one orbit are uniformly spaced out."

This module turns a shell description (the rows of paper Table 1) into one
:class:`~repro.orbits.kepler.KeplerianElements` per satellite.  The
inter-plane phase offset follows the Walker-delta convention: adjacent
orbital planes are shifted in mean anomaly by ``F / (orbits * sats_per_orbit)``
of a revolution, which is what produces the staggered "+Grid"-friendly
geometry of real constellations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .kepler import KeplerianElements

__all__ = ["Shell", "SatelliteIndex"]


@dataclass(frozen=True)
class SatelliteIndex:
    """Identifies one satellite inside a shell.

    Attributes:
        orbit: Orbital-plane index in ``[0, num_orbits)``.
        position_in_orbit: Slot index along the orbit in
            ``[0, satellites_per_orbit)``.
    """

    orbit: int
    position_in_orbit: int


@dataclass(frozen=True)
class Shell:
    """One orbital shell of a constellation (a row of paper Table 1).

    Attributes:
        name: Shell label, e.g. ``"S1"`` or ``"K1"``.
        num_orbits: Number of orbital planes.
        satellites_per_orbit: Satellites in each plane.
        altitude_m: Height ``h`` above the Earth's surface (meters).
        inclination_deg: Inclination ``i`` in degrees.
        phase_offset_rel: Walker phasing factor ``F`` expressed as a fraction
            of the inter-satellite spacing by which adjacent planes are
            shifted.  The conventional choice for +Grid constellations is
            ``F = 1`` slot spread over all planes (default behaviour when
            this is ``None``): plane ``o`` is shifted by
            ``o / num_orbits`` of one in-orbit slot.
    """

    name: str
    num_orbits: int
    satellites_per_orbit: int
    altitude_m: float
    inclination_deg: float
    phase_offset_rel: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.num_orbits < 1:
            raise ValueError(f"need at least one orbit, got {self.num_orbits}")
        if self.satellites_per_orbit < 1:
            raise ValueError(
                f"need at least one satellite per orbit, got "
                f"{self.satellites_per_orbit}")
        if self.altitude_m <= 0.0:
            raise ValueError(f"altitude must be positive, got {self.altitude_m}")
        if not 0.0 <= self.inclination_deg <= 180.0:
            raise ValueError(
                f"inclination must be in [0, 180], got {self.inclination_deg}")
        if not 0.0 <= self.phase_offset_rel < 1.0:
            raise ValueError(
                f"phase offset must be in [0, 1), got {self.phase_offset_rel}")

    @property
    def total_satellites(self) -> int:
        """Total satellite count of the shell."""
        return self.num_orbits * self.satellites_per_orbit

    @property
    def altitude_km(self) -> float:
        """Altitude in kilometers, as Table 1 quotes it."""
        return self.altitude_m / 1000.0

    def satellite_id(self, index: SatelliteIndex) -> int:
        """Flat id of a satellite: orbits are laid out consecutively."""
        self._check_index(index)
        return index.orbit * self.satellites_per_orbit + index.position_in_orbit

    def elements_for(self, index: SatelliteIndex) -> KeplerianElements:
        """Keplerian elements of one satellite of the shell at the epoch."""
        self._check_index(index)
        raan_deg = 360.0 * index.orbit / self.num_orbits
        slot_deg = 360.0 / self.satellites_per_orbit
        phase_deg = slot_deg * (index.position_in_orbit
                                + self.phase_offset_rel * index.orbit)
        return KeplerianElements.circular(
            altitude_m=self.altitude_m,
            inclination_deg=self.inclination_deg,
            raan_deg=raan_deg,
            mean_anomaly_deg=phase_deg % 360.0,
        )

    def iter_indices(self) -> Iterator[SatelliteIndex]:
        """Iterate satellite indices in flat-id order."""
        for orbit in range(self.num_orbits):
            for position in range(self.satellites_per_orbit):
                yield SatelliteIndex(orbit=orbit, position_in_orbit=position)

    def _check_index(self, index: SatelliteIndex) -> None:
        if not 0 <= index.orbit < self.num_orbits:
            raise ValueError(
                f"orbit {index.orbit} out of range [0, {self.num_orbits})")
        if not 0 <= index.position_in_orbit < self.satellites_per_orbit:
            raise ValueError(
                f"position {index.position_in_orbit} out of range "
                f"[0, {self.satellites_per_orbit})")
