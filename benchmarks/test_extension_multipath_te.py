"""Extension bench: multipath traffic engineering over hotspots.

The paper's §5.4 takeaway: "there will be substantial value in using
non-shortest path and multi-path routing across busy regions".  This bench
quantifies that value with the max-min fluid allocator: the permutation
traffic matrix is allocated once with every flow pinned to its shortest
path, and once with every flow split across up to two edge-disjoint paths.
Splitting moves traffic off the shared bottlenecks and raises both the
aggregate allocation and the worst flow's share.
"""

import numpy as np
import pytest

from repro import Hypatia, random_permutation_pairs
from repro.fluid import max_min_fair_allocation, path_devices
from repro.routing.multipath import edge_disjoint_paths

from _common import scaled, write_result

NUM_FLOWS = scaled(40, 100)
LINK_RATE_BPS = 10e6


def test_extension_multipath_te(kuiper, benchmark):
    pairs = random_permutation_pairs(100)[:NUM_FLOWS]
    num_sats = kuiper.network.num_satellites
    holder = {}

    def allocate_both():
        snapshot = kuiper.snapshot(0.0)
        single_links = []
        multi_links = []       # flattened subflow link lists
        subflow_owner = []     # subflow index -> flow index
        for flow_index, (src, dst) in enumerate(pairs):
            paths = edge_disjoint_paths(snapshot, src, dst, max_paths=2)
            if not paths:
                continue
            best = paths[0][0]
            single_links.append(
                (flow_index, path_devices(best, num_sats)))
            for path, _ in paths:
                multi_links.append(path_devices(path, num_sats))
                subflow_owner.append(flow_index)

        def run(flow_links):
            capacities = {}
            for links in flow_links:
                for link in links:
                    capacities[link] = LINK_RATE_BPS
            return max_min_fair_allocation(
                capacities, flow_links,
                demands=[100 * LINK_RATE_BPS] * len(flow_links))

        single_rates = run([links for _, links in single_links])
        subflow_rates = run(multi_links)
        per_flow_multi = {}
        for rate, owner in zip(subflow_rates, subflow_owner):
            per_flow_multi[owner] = per_flow_multi.get(owner, 0.0) + rate
        holder["single"] = {
            flow_index: rate
            for (flow_index, _), rate in zip(single_links, single_rates)
        }
        holder["multi"] = per_flow_multi
        return len(single_links)

    benchmark.pedantic(allocate_both, rounds=1, iterations=1)

    single = np.array(list(holder["single"].values()))
    multi = np.array([holder["multi"][flow_index]
                      for flow_index in holder["single"]])
    rows = [f"# K1, {NUM_FLOWS} permutation flows, 10 Mbit/s devices, "
            f"max-min allocation",
            f"{'routing':>12} {'aggregate (Mbit/s)':>19} "
            f"{'worst flow':>11} {'median flow':>12}",
            f"{'single-path':>12} {single.sum() / 1e6:19.2f} "
            f"{single.min() / 1e6:11.2f} "
            f"{np.median(single) / 1e6:12.2f}",
            f"{'2-disjoint':>12} {multi.sum() / 1e6:19.2f} "
            f"{multi.min() / 1e6:11.2f} "
            f"{np.median(multi) / 1e6:12.2f}",
            f"aggregate gain: {multi.sum() / single.sum() - 1.0:+.1%}"]

    assert multi.sum() > single.sum()          # TE frees capacity
    assert multi.min() >= single.min() - 1e-6  # no flow is worse off
    write_result("extension_multipath_te", rows)
