"""Two-line element (TLE) generation.

Paper §3.1: Hypatia generates TLEs — the space-industry standard trajectory
format — for satellites that are not yet in orbit, from the Keplerian
elements disclosed in FCC/ITU filings, and validates the round-trip with an
independent library (pyephem).  This module is the from-scratch generator;
the from-scratch parser and propagator that validate its output without
external dependencies are a test oracle (``tests/_orbit_oracle.py``).

TLE format reference: NASA's "Definition of Two-line Element Set Coordinate
System" [41].  The fields we cannot know for an unlaunched satellite (drag
term, ballistic coefficient, revolution count ...) are written as zeros, the
convention the original Hypatia follows as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .kepler import KeplerianElements

__all__ = ["TLE", "tle_checksum", "generate_tle", "write_tle_file"]


@dataclass(frozen=True)
class TLE:
    """A parsed or generated two-line element set.

    Attributes:
        name: Line 0 (satellite name), up to 24 characters.
        line1: The first data line (69 characters, checksummed).
        line2: The second data line (69 characters, checksummed).
    """

    name: str
    line1: str
    line2: str

    def as_lines(self) -> List[str]:
        """The three text lines of the element set."""
        return [self.name, self.line1, self.line2]

    def __str__(self) -> str:
        return "\n".join(self.as_lines())


def tle_checksum(line: str) -> int:
    """The TLE checksum of the first 68 characters of ``line``.

    Digits count their value, ``-`` counts 1, everything else 0; the result
    is taken modulo 10.
    """
    total = 0
    for char in line[:68]:
        if char.isdigit():
            total += int(char)
        elif char == "-":
            total += 1
    return total % 10


def _format_epoch(epoch_year: int, epoch_day: float) -> str:
    """Format the two-digit year + fractional day-of-year epoch field."""
    if not 1957 <= epoch_year <= 2056:
        raise ValueError(f"epoch year out of TLE range: {epoch_year}")
    if not 1.0 <= epoch_day < 367.0:
        raise ValueError(f"epoch day must be in [1, 367), got {epoch_day}")
    return f"{epoch_year % 100:02d}{epoch_day:012.8f}"


def generate_tle(elements: KeplerianElements, name: str,
                 catalog_number: int = 0, epoch_year: int = 2000,
                 epoch_day: float = 1.0,
                 international_designator: str = "00000A") -> TLE:
    """Render Keplerian elements as a standards-compliant TLE.

    Args:
        elements: Osculating elements at the epoch.
        name: Satellite name for line 0 (e.g. ``"Kuiper-630 12"``).
        catalog_number: NORAD catalog number; synthetic constellations use a
            sequential counter.
        epoch_year: Four-digit epoch year.
        epoch_day: Fractional day of year of the epoch (1-based).
        international_designator: Launch designator field (8 chars max).

    Returns:
        A :class:`TLE` whose two data lines carry valid checksums.
    """
    if not 0 <= catalog_number <= 99_999:
        raise ValueError(f"catalog number must fit 5 digits: {catalog_number}")

    epoch_field = _format_epoch(epoch_year, epoch_day)
    # Unknown-for-unlaunched fields: mean-motion derivatives and B* are zero.
    line1 = (
        f"1 {catalog_number:05d}U {international_designator:<8s} "
        f"{epoch_field}  .00000000  00000-0  00000-0 0    0"
    )
    if len(line1) != 68:
        raise AssertionError(f"TLE line 1 malformed ({len(line1)} chars)")
    line1 += str(tle_checksum(line1))

    inclination_deg = math.degrees(elements.inclination_rad)
    raan_deg = math.degrees(elements.raan_rad)
    argp_deg = math.degrees(elements.arg_periapsis_rad)
    mean_anomaly_deg = math.degrees(elements.mean_anomaly_rad)
    # Eccentricity field: seven digits, implied leading decimal point.
    ecc_field = f"{elements.eccentricity:.7f}"[2:]
    mean_motion = elements.mean_motion_rev_per_day
    if mean_motion >= 100.0:
        raise ValueError(
            f"mean motion {mean_motion:.4f} rev/day does not fit the TLE field")
    line2 = (
        f"2 {catalog_number:05d} {inclination_deg:8.4f} {raan_deg:8.4f} "
        f"{ecc_field} {argp_deg:8.4f} {mean_anomaly_deg:8.4f} "
        f"{mean_motion:11.8f}    0"
    )
    if len(line2) != 68:
        raise AssertionError(f"TLE line 2 malformed ({len(line2)} chars)")
    line2 += str(tle_checksum(line2))

    return TLE(name=name[:24], line1=line1, line2=line2)


def write_tle_file(tles, path) -> None:
    """Write element sets in the standard 3-line (3LE) file format.

    Args:
        tles: The element sets, written in order.
        path: Output file path.
    """
    with open(path, "w") as handle:
        for tle in tles:
            handle.write(tle.name + "\n")
            handle.write(tle.line1 + "\n")
            handle.write(tle.line2 + "\n")


