"""Constellation construction: shells -> concrete satellites over time.

A :class:`Constellation` lays out the satellites of one or more shells as
element arrays, assigns global satellite ids, and computes all satellite
positions at any time with a single vectorized evaluation.  Positions are
what the rest of the framework consumes: ISL lengths, GSL visibility, and
per-packet delays are all derived from them.

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

from ..geo.constants import EARTH_ROTATION_RATE_RAD_PER_S, WGS72
from ..orbits.kepler import (TWO_PI, KeplerianElements,
                             mean_motion_rad_per_s)
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


def _wrap_angles(angles_rad: np.ndarray) -> np.ndarray:
    """:func:`~repro.orbits.kepler.wrap_angle` over an array, same bits."""
    wrapped = np.fmod(angles_rad, TWO_PI)
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)


def _shell_element_arrays(shell: Shell) -> Tuple[np.ndarray, ...]:
    """``(radius, raan, inclination, argument of latitude, mean motion)``
    of every satellite of ``shell``, in flat-id order.

    Bit for bit what :meth:`Shell.elements_for` and
    :meth:`KeplerianElements.circular` give one satellite at a time: the
    same IEEE operations in the same order (``np.radians`` is
    ``math.radians``, array ``%`` is float ``%``), and the mean motion,
    equal for the whole shell, computed once.
    """
    orbit = np.repeat(np.arange(shell.num_orbits),
                      shell.satellites_per_orbit)
    position = np.tile(np.arange(shell.satellites_per_orbit),
                       shell.num_orbits)
    raan_deg = 360.0 * orbit / shell.num_orbits
    slot_deg = 360.0 / shell.satellites_per_orbit
    phase_deg = slot_deg * (position + shell.phase_offset_rel * orbit)
    radius_m = WGS72.semi_major_axis_m + shell.altitude_m
    count = shell.total_satellites
    # For circular orbits the argument of latitude at the epoch is the
    # mean anomaly plus the argument of periapsis (0).
    return (np.full(count, radius_m),
            _wrap_angles(np.radians(raan_deg)),
            np.full(count, math.radians(shell.inclination_deg)),
            _wrap_angles(np.radians(phase_deg % 360.0)) + 0.0,
            np.full(count, mean_motion_rad_per_s(radius_m)))


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
        count = 0
        for shell in self.shells:
            self._shell_id_offset[shell.name] = count
            count += shell.total_satellites
        self._num_satellites = count
        #: Built on first access (:attr:`satellites`), never pickled.
        self._satellites: Optional[List[Satellite]] = None
        columns = [_shell_element_arrays(shell) for shell in self.shells]
        (self._radius_m, self._raan_rad, self._inclination_rad,
         self._anomaly_rad, self._mean_motion) = (
            np.concatenate(arrays) for arrays in zip(*columns))

    def __getstate__(self) -> Dict[str, object]:
        state = dict(vars(self))
        state["_satellites"] = None
        return state

    @property
    def satellites(self) -> List[Satellite]:
        """Every satellite as an object, in global-id order.

        Built on first access: only exports (TLEs, CZML) and
        :meth:`satellite` need per-satellite objects; positions run on
        the element arrays.
        """
        if self._satellites is None:
            self._satellites = [
                Satellite(satellite_id=self._shell_id_offset[shell.name]
                          + shell.satellite_id(index),
                          shell_name=shell.name, index=index,
                          elements=shell.elements_for(index))
                for shell in self.shells for index in shell.iter_indices()]
        return self._satellites

    def __len__(self) -> int:
        return self._num_satellites

    @property
    def num_satellites(self) -> int:
        """Total number of satellites across all shells."""
        return self._num_satellites

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
