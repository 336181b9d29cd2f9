"""Fig. 7: RTTs and their variation over time, across GS pairs.

Paper protocol (§5.1): same sweep as Fig. 6; three CDFs across pairs —
(a) max RTT, (b) max-min RTT, (c) max/min RTT.  Expected shape: RTT
variation is substantial for all constellations (several ms at the median,
tens of ms in the tail); a nontrivial fraction of pairs see >=20% RTT
change over time.
"""

import numpy as np
import pytest

from _common import format_cdf_summary, write_result
from _sweeps import DURATION_S, STEP_S, rtt_stats

SHELLS = ["T1", "K1", "S1"]


def test_fig7_rtt_and_variation(benchmark):
    results = {}

    def sweep_all():
        for shell in SHELLS:
            results[shell] = rtt_stats(shell)
        return len(results)

    benchmark.pedantic(sweep_all, rounds=1, iterations=1)

    rows = [f"# duration={DURATION_S}s step={STEP_S}s, pairs >= 500 km, "
            f"always-connected pairs only"]
    spreads = {}
    ratios = {}
    for shell in SHELLS:
        stats = results[shell]
        max_rtt_ms = np.array([s.max_rtt_s for s in stats]) * 1000.0
        spread_ms = np.array([s.rtt_spread_s for s in stats]) * 1000.0
        ratio = np.array([s.max_over_min for s in stats])
        spreads[shell] = spread_ms
        ratios[shell] = ratio
        rows.append(f"\n== {shell} ==")
        rows += format_cdf_summary("(a) max RTT", max_rtt_ms, unit="ms")
        rows += format_cdf_summary("(b) max - min RTT", spread_ms, unit="ms")
        rows += format_cdf_summary("(c) max / min RTT", ratio, unit="x")
        rows.append(f"fraction of pairs with max >= 1.2x min: "
                    f"{np.mean(ratio >= 1.2):.3f}")

    # Shape: RTTs vary substantially over time for every constellation —
    # the paper's core claim — with multi-ms medians and long tails.
    for shell in SHELLS:
        assert np.median(spreads[shell]) > 1.0, shell
        assert np.percentile(spreads[shell], 90) > 5.0, shell
        assert (ratios[shell] >= 1.0).all()
        assert np.percentile(ratios[shell], 90) > 1.05, shell
    write_result("fig7_rtt_variation", rows)
