"""Fig. 9: forwarding-state time-step granularity.

Paper protocol (§5.3): compute forwarding state at 50, 100 and 1000 ms
time steps over Kuiper K1 and measure (a) the path changes observed per
time step and (b) the changes missed at coarser steps relative to 50 ms.
Expected shape: the 100 ms step misses changes for a negligible fraction
of pairs, while 1000 ms misses one or more changes for a visible fraction
(paper: 0.4% vs 6%).
"""

import numpy as np
import pytest

from repro import Hypatia, random_permutation_pairs
from repro.analysis.timestep import changes_per_step, compare_timesteps

from _common import scaled, write_result

#: Base (finest) step is the paper's 50 ms; the scaled run shortens the
#: window and tracks fewer pairs instead of coarsening the base step.
BASE_STEP_S = 0.05
DURATION_S = scaled(12.0, 200.0)
NUM_PAIRS = scaled(25, 100)
FACTORS = (2, 20)  # -> 100 ms and 1000 ms


def test_fig9_granularity_of_updates(benchmark):
    hypatia = Hypatia.from_shell_name("K1", num_cities=100)
    pairs = random_permutation_pairs(100)[:NUM_PAIRS]
    holder = {}

    def sweep():
        holder["timelines"] = hypatia.compute_timelines(
            pairs, duration_s=DURATION_S, step_s=BASE_STEP_S)
        return len(holder["timelines"])

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    timelines = holder["timelines"]
    num_sats = hypatia.network.num_satellites

    per_pair_sets = [timeline.satellite_sets(num_sats)
                     for timeline in timelines.values()]
    base_changes = changes_per_step(per_pair_sets)
    comparisons = compare_timesteps(timelines, num_sats, factors=FACTORS)

    rows = [f"# K1, base step {BASE_STEP_S * 1000:.0f} ms, "
            f"{NUM_PAIRS} pairs, {DURATION_S}s",
            f"(a) total path changes at base step: {base_changes.sum()} "
            f"({base_changes.sum() / DURATION_S:.2f}/s network-wide)"]
    for comparison in comparisons:
        step_ms = BASE_STEP_S * comparison.factor * 1000.0
        rows.append(
            f"(b) step {step_ms:.0f} ms: pairs missing >=1 change: "
            f"{comparison.fraction_missing_at_least(1) * 100:.1f}%, "
            f">=2: {comparison.fraction_missing_at_least(2) * 100:.1f}%, "
            f"total missed {comparison.missed_per_pair.sum()}")

    # Shape: the coarser step misses at least as many changes as the
    # finer one, and 100 ms misses (nearly) nothing.
    missed_100 = comparisons[0].missed_per_pair.sum()
    missed_1000 = comparisons[1].missed_per_pair.sum()
    assert missed_1000 >= missed_100
    assert comparisons[0].fraction_missing_at_least(1) <= 0.1
    write_result("fig9_timestep", rows)
