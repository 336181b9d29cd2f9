"""Shell configurations of the three largest proposed constellations.

These are the rows of paper Table 1, taken from the operators' FCC and ITU
filings, together with the minimum elevation angles the paper uses in §5:
Starlink 25 deg, Kuiper 30 deg (the filings say "20(min)/30/35/45"), and
Telesat 10 deg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..orbits.shell import Shell

__all__ = [
    "ConstellationSpec",
    "STARLINK_SHELLS",
    "KUIPER_SHELLS",
    "TELESAT_SHELLS",
    "STARLINK_S1",
    "KUIPER_K1",
    "TELESAT_T1",
    "ALL_SHELLS",
    "FIRST_SHELLS",
    "shell_by_name",
    "geostationary_belt",
    "GEO_ALTITUDE_M",
]


@dataclass(frozen=True)
class ConstellationSpec:
    """A named constellation: its shells plus connectivity parameters.

    Attributes:
        name: Operator name ("Starlink", "Kuiper", "Telesat").
        shells: The shells being deployed, in deployment order.
        min_elevation_deg: Minimum angle of elevation ``l`` below which a
            ground station cannot communicate with a satellite (paper §2.1).
        isls_per_satellite: Number of laser inter-satellite links each
            satellite carries; 4 for all modeled systems (paper §3.1).
    """

    name: str
    shells: Tuple[Shell, ...]
    min_elevation_deg: float
    isls_per_satellite: int = 4

    @property
    def total_satellites(self) -> int:
        """Total satellites across all shells."""
        return sum(shell.total_satellites for shell in self.shells)

    def first_shell(self) -> Shell:
        """The first-deployed shell (S1 / K1 / T1), used throughout §4-§5."""
        return self.shells[0]


def _shell(name: str, altitude_km: float, num_orbits: int,
           satellites_per_orbit: int, inclination_deg: float) -> Shell:
    """Shell from Table 1 units (km altitude)."""
    return Shell(
        name=name,
        num_orbits=num_orbits,
        satellites_per_orbit=satellites_per_orbit,
        altitude_m=altitude_km * 1000.0,
        inclination_deg=inclination_deg,
    )


# Starlink first phase: 4,409 satellites over 5 shells (Table 1).
STARLINK_S1 = _shell("S1", 550.0, 72, 22, 53.0)
STARLINK_SHELLS = ConstellationSpec(
    name="Starlink",
    shells=(
        STARLINK_S1,
        _shell("S2", 1110.0, 32, 50, 53.8),
        _shell("S3", 1130.0, 8, 50, 74.0),
        _shell("S4", 1275.0, 5, 75, 81.0),
        _shell("S5", 1325.0, 6, 75, 70.0),
    ),
    min_elevation_deg=25.0,
)

# Kuiper: 3,236 satellites over 3 shells (Table 1).
KUIPER_K1 = _shell("K1", 630.0, 34, 34, 51.9)
KUIPER_SHELLS = ConstellationSpec(
    name="Kuiper",
    shells=(
        KUIPER_K1,
        _shell("K2", 610.0, 36, 36, 42.0),
        _shell("K3", 590.0, 28, 28, 33.0),
    ),
    min_elevation_deg=30.0,
)

# Telesat: 1,671 satellites over 2 shells (Table 1; the paper's T1/T2 rows
# sum to fewer because spares are excluded from the orbital description).
TELESAT_T1 = _shell("T1", 1015.0, 27, 13, 98.98)
TELESAT_SHELLS = ConstellationSpec(
    name="Telesat",
    shells=(
        TELESAT_T1,
        _shell("T2", 1325.0, 40, 33, 50.88),
    ),
    min_elevation_deg=10.0,
)

#: All constellations by operator name.
ALL_SHELLS: Dict[str, ConstellationSpec] = {
    spec.name: spec
    for spec in (STARLINK_SHELLS, KUIPER_SHELLS, TELESAT_SHELLS)
}

#: The first-deployed shell of each operator — the workhorses of §4-§5.
FIRST_SHELLS: Dict[str, Shell] = {
    name: spec.first_shell() for name, spec in ALL_SHELLS.items()
}


#: Geostationary altitude (paper §2.4: GEO constellations like HughesNet /
#: Viasat operate at 35,786 km and incur hundreds of ms of latency).
GEO_ALTITUDE_M = 35_786_000.0


def geostationary_belt(num_satellites: int = 3) -> Shell:
    """A belt of equally spaced geostationary satellites, shell ``"GEO"``.

    Modeled as a single equatorial orbit at GEO altitude; its orbital
    period matches the sidereal day, so the satellites are stationary in
    the Earth-fixed frame — exactly the GEO behaviour of paper §2.4
    ("their GEO satellites are, by definition, stationary with respect to
    the Earth, and thus do not feature LEO dynamics").  Paper §7 lists
    GEO-LEO connectivity as a straightforward extension; this shell plugs
    into :class:`~repro.constellations.builder.Constellation` like any
    other.
    """
    if num_satellites < 1:
        raise ValueError("need at least one satellite")
    return Shell(
        name="GEO",
        num_orbits=1,
        satellites_per_orbit=num_satellites,
        altitude_m=GEO_ALTITUDE_M,
        inclination_deg=0.0,
    )


def shell_by_name(shell_name: str) -> Shell:
    """Look up any Table 1 shell by its label (``"S1"`` ... ``"T2"``).

    Raises:
        KeyError: If no shell carries that label.
    """
    for spec in ALL_SHELLS.values():
        for shell in spec.shells:
            if shell.name == shell_name:
                return shell
    raise KeyError(f"unknown shell {shell_name!r}; "
                   f"known: S1-S5, K1-K3, T1-T2")
