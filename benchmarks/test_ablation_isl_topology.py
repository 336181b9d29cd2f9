"""Ablation: ISL interconnect — +Grid vs intra-orbit-ring vs none.

DESIGN.md calls out the +Grid default (paper §3.1).  This ablation
quantifies what the cross-orbit links buy: removing them (ring) forces
paths to ride single orbits and balloons RTTs; removing ISLs entirely
(bent pipe, no relays) disconnects most intercontinental pairs.
"""

import numpy as np
import pytest

from repro import Hypatia, random_permutation_pairs
from repro.constellations.builder import Constellation
from repro.constellations.definitions import KUIPER_K1
from repro.ground.stations import ground_stations_from_cities
from repro.routing.engine import RoutingEngine
from repro.topology.network import LeoNetwork

from _common import scaled, write_result

NUM_PAIRS = scaled(40, 100)

#: (result label, ``LeoNetwork(isl_builder=)`` name).
BUILDERS = [("plus_grid", "plus_grid"),
            ("ring", "single_ring"),
            ("none", "none")]


def test_ablation_isl_topology(benchmark):
    pairs = random_permutation_pairs(100)[:NUM_PAIRS]
    stations = ground_stations_from_cities(count=100)
    holder = {}

    def sweep():
        for label, builder in BUILDERS:
            network = LeoNetwork(Constellation([KUIPER_K1]), stations,
                                 min_elevation_deg=30.0,
                                 isl_builder=builder)
            engine = RoutingEngine(network)
            snapshot = network.snapshot(0.0)
            rtts = []
            connected = 0
            for src, dst in pairs:
                rtt = engine.pair_rtt_s(snapshot, src, dst)
                if np.isfinite(rtt):
                    rtts.append(rtt)
                    connected += 1
            holder[label] = (connected, np.array(rtts))
        return len(holder)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [f"# K1, {NUM_PAIRS} pairs at t=0",
            f"{'interconnect':>13} {'connected':>10} {'median RTT (ms)':>16}"]
    for label, _ in BUILDERS:
        connected, rtts = holder[label]
        median = np.median(rtts) * 1000 if len(rtts) else float("nan")
        rows.append(f"{label:>13} {connected:10d} {median:16.2f}")

    grid_connected, grid_rtts = holder["plus_grid"]
    ring_connected, ring_rtts = holder["ring"]
    none_connected, _ = holder["none"]
    # +Grid connects everything the ring does, at lower or equal RTTs.
    assert grid_connected >= ring_connected > none_connected
    if len(ring_rtts):
        assert np.median(grid_rtts) < np.median(ring_rtts)
    write_result("ablation_isl_topology", rows)
