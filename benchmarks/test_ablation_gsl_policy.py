"""Ablation: GS satellite-selection policy — all-visible vs nearest-only.

Paper §3.1 offers both policies.  Restricting a GS to its nearest
satellite (the single-phased-array user-terminal model) removes ingress
options, so RTTs can only get worse and path churn can only increase.
"""

import numpy as np
import pytest

from repro import Hypatia, random_permutation_pairs
from repro.analysis.paths import pair_path_stats
from repro.topology.gsl import GslPolicy

from _common import scaled, write_result

NUM_PAIRS = scaled(20, 100)
DURATION_S = scaled(60.0, 200.0)
STEP_S = 2.0


def test_ablation_gsl_policy(benchmark):
    pairs = random_permutation_pairs(100)[:NUM_PAIRS]
    holder = {}

    def sweep():
        for policy in (GslPolicy.ALL_VISIBLE, GslPolicy.NEAREST_ONLY):
            hypatia = Hypatia.from_shell_name("K1", num_cities=100,
                                              gsl_policy=policy)
            holder[policy] = (hypatia, hypatia.compute_timelines(
                pairs, duration_s=DURATION_S, step_s=STEP_S))
        return len(holder)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [f"# K1, {NUM_PAIRS} pairs, {DURATION_S}s at {STEP_S}s"]
    summaries = {}
    for policy in (GslPolicy.ALL_VISIBLE, GslPolicy.NEAREST_ONLY):
        hypatia, timelines = holder[policy]
        rtts = np.concatenate([
            tl.rtts_s[np.isfinite(tl.rtts_s)]
            for tl in timelines.values()
        ])
        stats = pair_path_stats(timelines,
                                hypatia.network.num_satellites)
        changes = np.array([s.num_path_changes for s in stats])
        summaries[policy] = (np.median(rtts), np.mean(changes))
        rows.append(f"{policy.value:>13}: median RTT "
                    f"{np.median(rtts) * 1000:.2f} ms, mean path changes "
                    f"{np.mean(changes):.2f}")

    all_rtt, all_changes = summaries[GslPolicy.ALL_VISIBLE]
    nearest_rtt, nearest_changes = summaries[GslPolicy.NEAREST_ONLY]
    assert nearest_rtt >= all_rtt
    assert nearest_changes >= all_changes
    write_result("ablation_gsl_policy", rows)
