"""Constellation construction: shells -> concrete satellites over time.

A :class:`Constellation` instantiates every satellite of one or more shells,
assigns global satellite ids, and computes all satellite positions at any
time with a single vectorized evaluation.  Positions are what the rest of
the framework consumes: ISL lengths, GSL visibility, and per-packet delays
are all derived from them.

Every shell is circular (e = 0; :meth:`Shell.elements_for` builds
nothing else): the argument of latitude then advances linearly in time,
so an entire constellation's ECEF positions at time ``t`` cost a handful
of numpy operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.constants import EARTH_ROTATION_RATE_RAD_PER_S
from ..orbits.kepler import KeplerianElements
from ..orbits.shell import SatelliteIndex, Shell
from ..orbits.tle import TLE, generate_tle

__all__ = ["Satellite", "Constellation"]


@dataclass(frozen=True)
class Satellite:
    """One satellite of a constellation.

    Attributes:
        satellite_id: Global id, unique across all shells of the
            constellation; shells occupy consecutive id ranges.
        shell_name: Label of the owning shell (e.g. ``"K1"``).
        index: Orbit / in-orbit position within the shell.
        elements: Osculating Keplerian elements at the epoch.
    """

    satellite_id: int
    shell_name: str
    index: SatelliteIndex
    elements: KeplerianElements

    @property
    def name(self) -> str:
        """Human-readable satellite name, also used in generated TLEs."""
        return (f"{self.shell_name}-{self.index.orbit}"
                f"-{self.index.position_in_orbit}")


class Constellation:
    """All satellites of one or more shells, with fast position queries.

    Args:
        shells: Shells to instantiate, in order; global satellite ids are
            assigned shell by shell.
        name: Constellation name used in exports; defaults to the joined
            shell labels.

    Example:
        >>> from repro.constellations import KUIPER_K1
        >>> constellation = Constellation([KUIPER_K1])
        >>> positions = constellation.positions_ecef_m(10.0)
        >>> positions.shape
        (1156, 3)
    """

    def __init__(self, shells: Sequence[Shell],
                 name: Optional[str] = None,
                 epoch_offset_s: float = 0.0) -> None:
        if not shells:
            raise ValueError("a constellation needs at least one shell")
        names = [shell.name for shell in shells]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shell names: {names}")
        self.shells: Tuple[Shell, ...] = tuple(shells)
        self.name = name or "+".join(names)
        #: Simulation time 0 corresponds to this many seconds of satellite
        #: motion past the nominal epoch — lets experiments window around
        #: connectivity events without changing the schedule.
        self.epoch_offset_s = epoch_offset_s
        self._shell_id_offset: Dict[str, int] = {}
        self.satellites: List[Satellite] = []
        for shell in self.shells:
            self._shell_id_offset[shell.name] = len(self.satellites)
            for index in shell.iter_indices():
                self.satellites.append(Satellite(
                    satellite_id=len(self.satellites),
                    shell_name=shell.name,
                    index=index,
                    elements=shell.elements_for(index),
                ))
        self._build_vectorized_state()

    def _build_vectorized_state(self) -> None:
        """Cache per-satellite arrays for the vectorized circular path."""
        n = len(self.satellites)
        self._radius_m = np.empty(n)
        self._raan_rad = np.empty(n)
        self._inclination_rad = np.empty(n)
        self._anomaly_rad = np.empty(n)
        self._mean_motion = np.empty(n)
        for i, sat in enumerate(self.satellites):
            el = sat.elements
            self._radius_m[i] = el.semi_major_axis_m
            self._raan_rad[i] = el.raan_rad
            self._inclination_rad[i] = el.inclination_rad
            # For circular orbits the argument of latitude at the epoch is
            # the mean anomaly plus the argument of periapsis.
            self._anomaly_rad[i] = el.mean_anomaly_rad + el.arg_periapsis_rad
            self._mean_motion[i] = el.mean_motion_rad_per_s

    def __len__(self) -> int:
        return len(self.satellites)

    @property
    def num_satellites(self) -> int:
        """Total number of satellites across all shells."""
        return len(self.satellites)

    def satellite(self, satellite_id: int) -> Satellite:
        """The satellite with the given global id."""
        return self.satellites[satellite_id]

    def satellite_id(self, shell_name: str, index: SatelliteIndex) -> int:
        """Global id of a (shell, orbit, position) satellite."""
        offset = self._shell_id_offset[shell_name]
        shell = next(s for s in self.shells if s.name == shell_name)
        return offset + shell.satellite_id(index)

    def positions_eci_m(self, time_s: float) -> np.ndarray:
        """(N, 3) ECI positions of all satellites at ``time_s``."""
        time_s = time_s + self.epoch_offset_s
        u = self._anomaly_rad + self._mean_motion * time_s
        r = self._radius_m
        cos_u, sin_u = np.cos(u), np.sin(u)
        cos_o, sin_o = np.cos(self._raan_rad), np.sin(self._raan_rad)
        cos_i, sin_i = (np.cos(self._inclination_rad),
                        np.sin(self._inclination_rad))
        x_orb = r * cos_u
        y_orb = r * sin_u
        return np.column_stack([
            x_orb * cos_o - y_orb * cos_i * sin_o,
            x_orb * sin_o + y_orb * cos_i * cos_o,
            y_orb * sin_i,
        ])

    def positions_ecef_m(self, time_s: float) -> np.ndarray:
        """(N, 3) ECEF positions of all satellites at ``time_s``."""
        eci = self.positions_eci_m(time_s)
        theta = EARTH_ROTATION_RATE_RAD_PER_S * (time_s
                                                 + self.epoch_offset_s)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        x = eci[:, 0] * cos_t + eci[:, 1] * sin_t
        y = -eci[:, 0] * sin_t + eci[:, 1] * cos_t
        return np.column_stack([x, y, eci[:, 2]])

    def generate_tles(self, epoch_year: int = 2000,
                      epoch_day: float = 1.0) -> List[TLE]:
        """TLEs for every satellite, in global-id order (paper §3.1)."""
        return [
            generate_tle(sat.elements, name=sat.name,
                         catalog_number=sat.satellite_id,
                         epoch_year=epoch_year, epoch_day=epoch_day)
            for sat in self.satellites
        ]

    def describe(self) -> str:
        """A short multi-line summary, one line per shell."""
        lines = [f"Constellation {self.name}: "
                 f"{self.num_satellites} satellites, {len(self.shells)} shell(s)"]
        for shell in self.shells:
            lines.append(
                f"  {shell.name}: {shell.num_orbits} orbits x "
                f"{shell.satellites_per_orbit} sats @ {shell.altitude_km:.0f} km, "
                f"i={shell.inclination_deg:.2f} deg")
        return "\n".join(lines)
