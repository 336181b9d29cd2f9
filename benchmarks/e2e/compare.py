"""Judge two suite records: ``compare.py A.json B.json`` (A: parent, B: change).

For every (workload, end-to-end metric) prints one verdict:

* ``regressed``  — B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``improved``   — B's median is better by more than either side's own
  run-to-run spread (distance between quartiles over the median);
* ``unchanged``  — neither;
* ``unresolved`` — a side's spread is wider than the bound, so the medians
  cannot be told apart — unless every run of one side beats every run of
  the other, which settles it.

Any increase of a workload's failed share is ``regressed`` (bound 0), and
a changed ``sim_digest`` is flagged: a change meant only to speed the
simulator up must leave every simulated output identical.  Records taken
on different machines (cpu model, core count, library versions) are not
compared at all.  Exit status 1 if anything regressed, 2 if refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402

def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, Dict[str, Optional[float]]]:
    """Verdict for one metric from each side's samples."""
    sign = 1.0 if better == "lower" else -1.0
    # "Worse" as a positive number whatever the metric's direction.
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (median_b - median_a) / abs(median_a)
    spread_a, spread_b = quartile_spread(a), quartile_spread(b)
    spread = max(spread_a or 0.0, spread_b or 0.0)
    detail = {"median_a": median_a, "median_b": median_b,
              "worse_by": worse_by, "spread_a": spread_a,
              "spread_b": spread_b}
    if spread > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "improved", detail
        if all(sign * y > sign * x for x in a for y in b):
            return "regressed", detail
        return "unresolved", detail
    if worse_by > bound:
        return "regressed", detail
    if -worse_by > spread:
        return "improved", detail
    return "unchanged", detail


def compare(record_a: Dict[str, Any], record_b: Dict[str, Any],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present on both sides.

    Raises:
        ValueError: If the machine fingerprints differ.
    """
    if record_a["machine"] != record_b["machine"]:
        raise ValueError(
            "records come from different machines and cannot be compared:\n"
            f"  A: {record_a['machine']}\n  B: {record_b['machine']}")
    rows: List[Dict[str, Any]] = []
    for workload, entry_a in record_a["workloads"].items():
        entry_b = record_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in entry_a["metrics"] or \
                    name not in entry_b["metrics"]:
                continue
            outcome, detail = verdict(
                entry_a["metrics"][name]["samples"],
                entry_b["metrics"][name]["samples"],
                metric["better"], metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "verdict": outcome, **detail})
        share_a = entry_a["failed"] / entry_a["attempted"]
        share_b = entry_b["failed"] / entry_b["attempted"]
        rows.append({
            "workload": workload, "metric": "failed_frac",
            "verdict": "regressed" if share_b > share_a else (
                "improved" if share_b < share_a else "unchanged"),
            "median_a": share_a, "median_b": share_b,
            "worse_by": share_b - share_a, "spread_a": None,
            "spread_b": None})
        rows.append({
            "workload": workload, "metric": "sim_digest",
            "verdict": ("unchanged" if entry_a["sim_digest"]
                        == entry_b["sim_digest"] else "CHANGED"),
            "median_a": None, "median_b": None, "worse_by": None,
            "spread_a": None, "spread_b": None})
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> str:
    def number(value: Optional[float], percent: bool = False) -> str:
        if value is None:
            return "-"
        return f"{100 * value:+.1f} %" if percent else f"{value:.6g}"

    lines = [f"{'workload':<16s} {'metric':<18s} {'A median':>12s} "
             f"{'B median':>12s} {'worse by':>9s} {'spread A':>9s} "
             f"{'spread B':>9s}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<16s} {row['metric']:<18s} "
            f"{number(row['median_a']):>12s} {number(row['median_b']):>12s} "
            f"{number(row['worse_by'], True):>9s} "
            f"{number(row['spread_a'], True):>9s} "
            f"{number(row['spread_b'], True):>9s}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", type=Path, help="record of the parent commit")
    parser.add_argument("b", type=Path, help="record of the change")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    try:
        rows = compare(json.loads(args.a.read_text()),
                       json.loads(args.b.read_text()), spec)
    except ValueError as error:
        print(f"refused: {error}", file=sys.stderr)
        return 2
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
