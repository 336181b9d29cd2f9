"""Extension bench: rerouting around bad weather (paper §7 future work).

Puts a seeded storm schedule over the 100 cities and measures its impact
on the permutation traffic matrix: moderate rain (an elevation penalty)
lengthens paths but rarely disconnects; severe rain (total outage) cuts
the affected stations off entirely.
"""

import numpy as np
import pytest

from repro import Hypatia, random_permutation_pairs
from repro.constellations.builder import Constellation
from repro.constellations.definitions import KUIPER_K1
from repro.faults import FaultSchedule
from repro.ground.stations import ground_stations_from_cities
from repro.routing.engine import RoutingEngine
from repro.topology.network import LeoNetwork

from _common import scaled, write_result

NUM_PAIRS = scaled(30, 100)
SAMPLE_TIME_S = 50.0

SCENARIOS = [
    ("clear", None),
    ("moderate rain", FaultSchedule.storms(
        100, 100.0, seed=11, probability=0.3,
        mean_duration_s=200.0, penalty_deg=15.0)),
    ("severe rain", FaultSchedule.storms(
        100, 100.0, seed=11, probability=0.3,
        mean_duration_s=200.0, penalty_deg=90.0)),
]


def test_extension_weather_rerouting(benchmark):
    stations = ground_stations_from_cities(count=100)
    pairs = random_permutation_pairs(100)[:NUM_PAIRS]
    constellation = Constellation([KUIPER_K1])
    holder = {}

    def sweep():
        for label, storms in SCENARIOS:
            network = LeoNetwork(constellation, stations,
                                 min_elevation_deg=30.0, faults=storms)
            engine = RoutingEngine(network)
            snapshot = network.snapshot(SAMPLE_TIME_S)
            rtts = []
            for src, dst in pairs:
                rtt = engine.pair_rtt_s(snapshot, src, dst)
                if np.isfinite(rtt):
                    rtts.append(rtt)
            raining = 0
            if storms is not None:
                raining = sum(
                    1 for gid in range(100)
                    if storms.elevation_penalty_deg(gid, SAMPLE_TIME_S) > 0)
            holder[label] = (np.array(rtts), raining)
        return len(holder)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [f"# K1, {NUM_PAIRS} pairs at t={SAMPLE_TIME_S:.0f}s, seeded "
            f"storms over 100 cities",
            f"{'scenario':>14} {'raining GSes':>13} {'connected':>10} "
            f"{'median RTT (ms)':>16}"]
    for label, _ in SCENARIOS:
        rtts, raining = holder[label]
        median = np.median(rtts) * 1000 if len(rtts) else float("nan")
        rows.append(f"{label:>14} {raining:13d} {len(rtts):10d} "
                    f"{median:16.2f}")

    clear_rtts, _ = holder["clear"]
    moderate_rtts, raining = holder["moderate rain"]
    severe_rtts, _ = holder["severe rain"]
    assert raining > 0, "the seeded schedule must have active storms"
    # Moderate rain: largely survivable, median no better than clear.
    assert len(moderate_rtts) >= len(severe_rtts)
    assert np.median(moderate_rtts) >= np.median(clear_rtts) - 1e-9
    # Severe rain: outages actually cut pairs off.
    assert len(severe_rtts) < len(clear_rtts)
    write_result("extension_weather", rows)
