"""Workload builders: the traffic patterns the paper's experiments use.

* the random permutation traffic matrix over the top-100 cities (paper
  §3.4 and §5.4);
* the named city pairs studied in depth (§4: Rio de Janeiro-St. Petersburg,
  Manila-Dalian, Istanbul-Nairobi; §6: Paris-Luanda; Appendix A:
  Paris-Moscow).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..ground.stations import GroundStation

__all__ = [
    "PAPER_FOCUS_PAIRS",
    "random_permutation_pairs",
    "gid_by_name",
]

#: The GS pairs the paper examines individually (section -> city names).
PAPER_FOCUS_PAIRS: Dict[str, Tuple[str, str]] = {
    "rio_stpetersburg": ("Rio de Janeiro", "Saint Petersburg"),
    "manila_dalian": ("Manila", "Dalian"),
    "istanbul_nairobi": ("Istanbul", "Nairobi"),
    "paris_luanda": ("Paris", "Luanda"),
    "paris_moscow": ("Paris", "Moscow"),
    "chicago_zhengzhou": ("Chicago", "Zhengzhou"),
}


def random_permutation_pairs(num_stations: int,
                             seed: int = 42) -> List[Tuple[int, int]]:
    """A fixed-point-free random permutation traffic matrix.

    Every GS sends to exactly one other GS and receives from exactly one
    (paper §3.4: "the traffic is a random permutation between the GSes").

    Args:
        num_stations: Number of ground stations (gids 0..N-1).
        seed: RNG seed; the default yields the repository's canonical
            matrix, keeping every benchmark's workload identical.
    """
    if num_stations < 2:
        raise ValueError("need at least two stations to form pairs")
    rng = random.Random(seed)
    gids = list(range(num_stations))
    destinations = gids[:]
    # Re-shuffle until fixed-point free (a few tries at most).
    for _ in range(10_000):
        rng.shuffle(destinations)
        if all(src != dst for src, dst in zip(gids, destinations)):
            return list(zip(gids, destinations))
    raise RuntimeError("could not find a derangement (should not happen)")


def gid_by_name(stations: Sequence[GroundStation], name: str) -> int:
    """The gid of the station with the given name.

    Raises:
        KeyError: If no station matches.
    """
    for station in stations:
        if station.name == name:
            return station.gid
    raise KeyError(f"no ground station named {name!r}")
