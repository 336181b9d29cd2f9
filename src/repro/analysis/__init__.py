"""Post-processing analyses reproducing the paper's §4-§5 metrics.

The timeline statistics — :func:`pair_rtt_stats` (Figs. 6-7),
:func:`pair_path_stats` (Fig. 8), :func:`compare_timesteps` (Fig. 9) —
read the pair -> ``PairTimeline`` dict that
:func:`repro.sweep.sweep_timelines` /
:meth:`repro.Hypatia.compute_timelines` return; the figure benchmarks
compute their rows with exactly these functions.
"""

from .bandwidth import UnusedBandwidthStats, unused_bandwidth_stats
from .contacts import ContactWindow, contact_statistics, contact_windows
from .coverage import LatitudeCoverage, coverage_by_latitude
from .doppler import max_isl_doppler_summary
from .paths import PairPathStats, pair_path_stats
from .rtt import MIN_PAIR_SEPARATION_M, PairRttStats, pair_rtt_stats
from .timestep import TimestepComparison, changes_per_step, compare_timesteps

__all__ = [
    "ContactWindow",
    "contact_statistics",
    "contact_windows",
    "LatitudeCoverage",
    "coverage_by_latitude",
    "max_isl_doppler_summary",
    "UnusedBandwidthStats",
    "unused_bandwidth_stats",
    "PairPathStats",
    "pair_path_stats",
    "MIN_PAIR_SEPARATION_M",
    "PairRttStats",
    "pair_rtt_stats",
    "TimestepComparison",
    "changes_per_step",
    "compare_timesteps",
]
