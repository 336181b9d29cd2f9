"""Shared constellation-wide sweeps for Figs. 6-8 (cached per process).

Figs. 6 and 7 consume the same all-pairs RTT statistics; Fig. 8 consumes
the per-pair path timelines of the permutation matrix.  Each sweep is one
:meth:`Hypatia.compute_timelines` call per constellation, reused across
the benchmark files; the per-pair numbers come from ``repro.analysis``.
"""

from __future__ import annotations

from typing import Dict, List

from repro import Hypatia, random_permutation_pairs
from repro.analysis.rtt import PairRttStats, pair_rtt_stats

from _common import scaled

#: Sweep parameters (paper: 200 s at 100 ms; scaled keeps the same span
#: with a coarser step — RTT extremes converge quickly).
DURATION_S = scaled(120.0, 200.0)
STEP_S = scaled(4.0, 1.0)
PATH_STEP_S = scaled(2.0, 0.5)
NUM_CITIES = 100

_RTT_CACHE: Dict[str, List[PairRttStats]] = {}
_PATH_CACHE: Dict[str, dict] = {}


def rtt_stats(shell_name: str) -> List[PairRttStats]:
    """RTT statistics of the pairs the paper's Figs. 6-7 retain.

    Every i<j city pair at least 500 km apart that stayed connected over
    the whole sweep, in (i, j) order.
    """
    if shell_name not in _RTT_CACHE:
        hypatia = Hypatia.from_shell_name(shell_name, num_cities=NUM_CITIES)
        pairs = [(i, j) for i in range(NUM_CITIES)
                 for j in range(i + 1, NUM_CITIES)]
        _RTT_CACHE[shell_name] = pair_rtt_stats(
            hypatia.compute_timelines(pairs, DURATION_S, STEP_S),
            hypatia.ground_stations, require_always_connected=True)
    return _RTT_CACHE[shell_name]


def path_timelines(shell_name: str) -> dict:
    """Per-pair path timelines for the permutation traffic matrix."""
    if shell_name in _PATH_CACHE:
        return _PATH_CACHE[shell_name]
    hypatia = Hypatia.from_shell_name(shell_name, num_cities=NUM_CITIES)
    pairs = random_permutation_pairs(NUM_CITIES)
    result = {
        "hypatia": hypatia,
        "timelines": hypatia.compute_timelines(pairs, DURATION_S,
                                               PATH_STEP_S),
        "pairs": pairs,
    }
    _PATH_CACHE[shell_name] = result
    return result
