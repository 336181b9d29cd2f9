"""Bench-trajectory regression detection over ``results/BENCH_*.json``.

Every ``make bench-*`` gate appends one record per run to a trajectory
file (see ``benchmarks/_common.py``); this module is the reader side:
``repro bench-report`` loads each trajectory, picks its headline metric,
and flags the latest run if it is more than ``threshold`` (default 20%)
worse than the *rolling best* of all earlier runs.

Direction is inferred from the metric name: ``*_s`` / ``*_seconds`` are
wall times (lower is better); ``speedup`` / ``*throughput*`` / ``*_per_s``
are rates (higher is better).  Wall-time metrics are preferred over
rates when both exist, because rates divide two wall times and double
the noise (e.g. ``speedup`` in the fluid-scale trajectory swings with
the Python oracle's timing even when ``waterfill`` is steady).
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "TrajectoryReport", "choose_metric", "metric_direction",
    "compare_trajectory", "scan_results_dir", "format_reports",
]

#: Headline-metric preference, most-preferred first.  The first name
#: present (with numeric values) in a trajectory's records wins.
METRIC_PREFERENCE = (
    "vectorized_solve_s",
    "solve_s",
    "wall_time_s",
    "wall_s",
    "incremental_snapshot_s",
    "events_per_s",
    "snapshots_per_s",
    "speedup",
)

#: Default regression threshold: latest > best * (1 + 0.2) for
#: lower-is-better metrics (mirrored for higher-is-better).
DEFAULT_THRESHOLD = 0.2

_HIGHER_BETTER_HINTS = ("speedup", "throughput", "_per_s", "_per_wall_s",
                        "ops_s", "rate")


def metric_direction(name: str) -> str:
    """``"lower"`` or ``"higher"`` — which direction is better."""
    lowered = name.lower()
    for hint in _HIGHER_BETTER_HINTS:
        if hint in lowered:
            return "higher"
    return "lower"


def _numeric(record: Dict[str, Any], key: str) -> Optional[float]:
    value = record.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def choose_metric(records: Sequence[Dict[str, Any]],
                  metric: Optional[str] = None) -> Optional[str]:
    """Pick the headline metric for a trajectory.

    An explicit ``metric`` wins if any record carries it; otherwise the
    first :data:`METRIC_PREFERENCE` name present is used, then any
    ``*_s``-suffixed numeric field (sorted for determinism).
    """
    def present(name: str) -> bool:
        return any(_numeric(record, name) is not None
                   for record in records)

    if metric:
        return metric if present(metric) else None
    for name in METRIC_PREFERENCE:
        if present(name):
            return name
    candidates = sorted({key for record in records for key in record
                         if key.endswith("_s")
                         and _numeric(record, key) is not None})
    return candidates[0] if candidates else None


@dataclass
class TrajectoryReport:
    """Verdict for one ``BENCH_*.json`` trajectory."""

    path: str
    name: str
    metric: Optional[str] = None
    direction: str = "lower"
    num_records: int = 0
    latest: Optional[float] = None
    best: Optional[float] = None
    ratio: Optional[float] = None
    regressed: bool = False
    status: str = "no data"
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path, "name": self.name, "metric": self.metric,
            "direction": self.direction, "num_records": self.num_records,
            "latest": self.latest, "best": self.best, "ratio": self.ratio,
            "regressed": self.regressed, "status": self.status,
        }


def compare_trajectory(path: str, records: Sequence[Dict[str, Any]],
                       threshold: float = DEFAULT_THRESHOLD,
                       metric: Optional[str] = None) -> TrajectoryReport:
    """Compare the latest record against the rolling best of the rest."""
    name = os.path.basename(path)
    if name.startswith("BENCH_"):
        name = name[len("BENCH_"):]
    if name.endswith(".json"):
        name = name[:-len(".json")]
    report = TrajectoryReport(path=path, name=name,
                              num_records=len(records))
    if not records:
        report.status = "empty trajectory"
        return report
    chosen = choose_metric(records, metric=metric)
    if chosen is None:
        report.status = ("no numeric metric"
                         + (f" {metric!r}" if metric else ""))
        return report
    report.metric = chosen
    report.direction = metric_direction(chosen)
    report.latest = _numeric(records[-1], chosen)
    history = [value for record in records[:-1]
               for value in [_numeric(record, chosen)]
               if value is not None]
    if report.latest is None:
        report.status = f"latest record lacks {chosen!r}"
        return report
    if not history:
        report.status = "no baseline (single record)"
        return report
    if report.direction == "lower":
        report.best = min(history)
        if report.best > 0:
            report.ratio = report.latest / report.best
        report.regressed = report.latest > report.best * (1.0 + threshold)
    else:
        report.best = max(history)
        if report.best > 0:
            report.ratio = report.latest / report.best
        report.regressed = report.latest < report.best / (1.0 + threshold)
    report.status = "REGRESSED" if report.regressed else "ok"
    return report


def _load_records(path: str) -> Tuple[List[Dict[str, Any]], Optional[str]]:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    except (OSError, ValueError) as exc:
        return [], f"unreadable: {exc}"
    if isinstance(payload, dict):
        payload = payload.get("records", [])
    if not isinstance(payload, list):
        return [], "not a record list"
    return [record for record in payload if isinstance(record, dict)], None


def scan_results_dir(results_dir: str,
                     threshold: float = DEFAULT_THRESHOLD,
                     metric: Optional[str] = None
                     ) -> List[TrajectoryReport]:
    """One :class:`TrajectoryReport` per ``BENCH_*.json``, sorted by name."""
    reports = []
    for path in sorted(glob.glob(os.path.join(results_dir,
                                              "BENCH_*.json"))):
        records, error = _load_records(path)
        if error is not None:
            report = TrajectoryReport(path=path,
                                      name=os.path.basename(path),
                                      status=error)
        else:
            report = compare_trajectory(path, records,
                                        threshold=threshold,
                                        metric=metric)
        reports.append(report)
    return reports


def format_reports(reports: Sequence[TrajectoryReport],
                   threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Human-readable table of trajectory verdicts."""
    lines = [f"bench trajectories ({len(reports)}), regression threshold "
             f"{threshold:.0%}:"]
    for report in reports:
        if report.metric is None or report.best is None:
            lines.append(f"  {report.name:<20s} {report.status}"
                         + (f" [{report.metric}]" if report.metric else ""))
            continue
        ratio = (f" ({report.ratio:.3f}x of best)"
                 if report.ratio is not None else "")
        lines.append(
            f"  {report.name:<20s} {report.status:<10s} "
            f"{report.metric} [{report.direction} is better] "
            f"latest={report.latest:.6g} best={report.best:.6g}{ratio} "
            f"over {report.num_records} runs")
    return lines
