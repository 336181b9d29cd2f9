"""Fig. 6: max RTT over time vs the geodesic RTT, across GS pairs.

Paper protocol (§5.1): Starlink S1, Kuiper K1, Telesat T1 over the 100
most populous cities, all pairs >= 500 km apart.  Expected shape: for all
three constellations, more than ~80% of connected pairs have a maximum RTT
under 2x the geodesic; Telesat achieves the lowest ratios despite the
fewest satellites (its 10 deg minimum elevation), Starlink the highest
(22 satellites per orbit force zig-zag paths).
"""

import numpy as np
import pytest

from _common import format_cdf_summary, write_result
from _sweeps import DURATION_S, STEP_S, rtt_stats

SHELLS = ["T1", "K1", "S1"]


def test_fig6_max_rtt_over_geodesic(benchmark):
    results = {}

    def sweep_all():
        for shell in SHELLS:
            results[shell] = rtt_stats(shell)
        return len(results)

    benchmark.pedantic(sweep_all, rounds=1, iterations=1)

    rows = [f"# duration={DURATION_S}s step={STEP_S}s, pairs >= 500 km, "
            f"always-connected pairs only"]
    ratios = {}
    for shell in SHELLS:
        ratio = np.array([s.max_over_geodesic for s in results[shell]])
        ratios[shell] = ratio
        rows += format_cdf_summary(
            f"{shell} max-RTT / geodesic-RTT", ratio, unit="x")
        rows.append(f"{shell}: fraction of pairs with max RTT < 2x "
                    f"geodesic: {np.mean(ratio < 2.0):.3f}")

    # Shape assertions (paper §5.1): the geodesic is a hard lower bound
    # and, as in the paper, more than 80 % of pairs sit under 2x it for
    # every constellation.
    for shell in SHELLS:
        assert np.mean(ratios[shell] < 2.0) > 0.8, shell
        assert (ratios[shell] >= 1.0).all(), "geodesic RTT is a lower bound"
    # The paper additionally orders the constellations T1 < K1 < S1 at the
    # median; that ordering is sensitive to inter-plane phasing details
    # the filings do not pin down, so it is reported rather than asserted
    # (see EXPERIMENTS.md).
    medians = {shell: float(np.median(ratios[shell])) for shell in SHELLS}
    rows.append(f"median ordering observed: "
                f"{sorted(medians, key=medians.get)} "
                f"(paper: ['T1', 'K1', 'S1'])")
    assert max(medians.values()) < 1.6  # all three stay near the geodesic
    write_result("fig6_rtt_vs_geodesic", rows)
