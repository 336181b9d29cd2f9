"""RTT statistics across GS pairs (paper §5.1, Figs. 6-7).

Given per-pair RTT timelines, computes the distributions the paper reports:

* max-RTT / geodesic-RTT ratio (Fig. 6) — how close the constellation gets
  to the speed-of-light lower bound;
* max RTT, max-min RTT, and max/min RTT across pairs (Fig. 7) — how large
  and how variable latencies are.

Pairs closer than 500 km are excluded, as in the paper ("we already
exclude end-point pairs that are within 500 km of each other").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..geo.distance import geodesic_rtt_s, great_circle_distance_m
from ..ground.stations import GroundStation
from ..topology.dynamic_state import PairTimeline

__all__ = ["PairRttStats", "pair_rtt_stats", "MIN_PAIR_SEPARATION_M"]

#: Paper §5.1: pairs closer than this are excluded from RTT distributions.
MIN_PAIR_SEPARATION_M = 500_000.0


@dataclass(frozen=True)
class PairRttStats:
    """RTT summary of one GS pair over a simulation.

    Attributes:
        src_gid / dst_gid: The pair.
        min_rtt_s: Minimum RTT over connected snapshots.
        max_rtt_s: Maximum RTT over connected snapshots.
        geodesic_rtt_s: Great-circle speed-of-light RTT between endpoints.
        connected_fraction: Fraction of snapshots with a path.
    """

    src_gid: int
    dst_gid: int
    min_rtt_s: float
    max_rtt_s: float
    geodesic_rtt_s: float
    connected_fraction: float

    @property
    def max_over_geodesic(self) -> float:
        """Fig. 6's ratio."""
        return self.max_rtt_s / self.geodesic_rtt_s

    @property
    def rtt_spread_s(self) -> float:
        """Fig. 7(b)'s max - min RTT."""
        return self.max_rtt_s - self.min_rtt_s

    @property
    def max_over_min(self) -> float:
        """Fig. 7(c)'s max / min RTT."""
        return self.max_rtt_s / self.min_rtt_s


def pair_rtt_stats(timelines: Dict[Tuple[int, int], PairTimeline],
                   stations: Sequence[GroundStation],
                   require_always_connected: bool = False,
                   ) -> List[PairRttStats]:
    """Summarize RTT behaviour of every tracked pair at least
    :data:`MIN_PAIR_SEPARATION_M` apart (paper: 500 km).

    Args:
        timelines: Output of :func:`repro.sweep.sweep_timelines`.
        stations: Ground stations, indexed by gid.
        require_always_connected: Drop pairs that were ever disconnected
            (otherwise their stats cover connected snapshots only).

    Returns:
        One :class:`PairRttStats` per retained pair, in input order.
    """
    stats: List[PairRttStats] = []
    for (src_gid, dst_gid), timeline in timelines.items():
        src = stations[src_gid]
        dst = stations[dst_gid]
        separation = great_circle_distance_m(src.position, dst.position)
        if separation < MIN_PAIR_SEPARATION_M:
            continue
        mask = timeline.connected_mask
        if not mask.any():
            continue
        if require_always_connected and not mask.all():
            continue
        rtts = timeline.rtts_s[mask]
        stats.append(PairRttStats(
            src_gid=src_gid,
            dst_gid=dst_gid,
            min_rtt_s=float(rtts.min()),
            max_rtt_s=float(rtts.max()),
            geodesic_rtt_s=geodesic_rtt_s(src.position, dst.position),
            connected_fraction=float(mask.mean()),
        ))
    return stats
