"""Path-structure statistics across GS pairs (paper §5.2, Fig. 8).

For each pair's path timeline: the number of path changes (different
satellite membership between successive snapshots), and the range of hop
counts the pair's paths take over the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..topology.dynamic_state import PairTimeline, count_path_changes

__all__ = ["PairPathStats", "pair_path_stats"]


@dataclass(frozen=True)
class PairPathStats:
    """Path-structure summary of one GS pair.

    Attributes:
        src_gid / dst_gid: The pair.
        num_path_changes: Snapshot-to-snapshot changes in the path's
            satellite membership (Fig. 8(a)).
        min_hops / max_hops: Extremes of the path hop count (edges,
            including the up- and down-GSL) over connected snapshots.
    """

    src_gid: int
    dst_gid: int
    num_path_changes: int
    min_hops: int
    max_hops: int

    @property
    def hop_spread(self) -> int:
        """Fig. 8(b)'s max - min hop count."""
        return self.max_hops - self.min_hops

    @property
    def hop_ratio(self) -> float:
        """Fig. 8(c)'s max / min hop count."""
        return self.max_hops / self.min_hops


def pair_path_stats(timelines: Dict[Tuple[int, int], PairTimeline],
                    num_satellites: int) -> List[PairPathStats]:
    """Summarize path evolution of every tracked pair.

    Pairs that never had a path are skipped.
    """
    stats: List[PairPathStats] = []
    for (src_gid, dst_gid), timeline in timelines.items():
        hop_counts = timeline.hop_counts()
        connected = hop_counts[hop_counts > 0]
        if connected.size == 0:
            continue
        sets = timeline.satellite_sets(num_satellites)
        stats.append(PairPathStats(
            src_gid=src_gid,
            dst_gid=dst_gid,
            num_path_changes=count_path_changes(sets),
            min_hops=int(connected.min()),
            max_hops=int(connected.max()),
        ))
    return stats
