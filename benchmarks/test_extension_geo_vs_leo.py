"""Extension bench: GEO vs LEO latency — the paper's §1/§2.4 motivation.

"Operating at 35,786 km, [GEO constellations] incur hundreds of
milliseconds of latency", which is why the new constellations fly LEO.
This bench builds a geostationary belt and Kuiper K1 over the same city
pairs and quantifies the gap.
"""

import numpy as np
import pytest

from repro import Hypatia
from repro.constellations.builder import Constellation
from repro.constellations.definitions import geostationary_belt
from repro.ground.stations import ground_stations_from_cities
from repro.routing.engine import RoutingEngine
from repro.topology.network import LeoNetwork

from _common import write_result

PAIR_NAMES = [
    ("Sao Paulo", "Bogota"),
    ("Lagos", "Cairo"),
    ("Jakarta", "Manila"),
]


def test_extension_geo_vs_leo_latency(kuiper, benchmark):
    stations = ground_stations_from_cities(count=100)
    holder = {}

    def run():
        geo = LeoNetwork(Constellation([geostationary_belt(8)]), stations,
                         min_elevation_deg=10.0, isl_builder="none")
        geo_engine = RoutingEngine(geo)
        geo_snapshot = geo.snapshot(0.0)
        leo_snapshot = kuiper.snapshot(0.0)
        for name_a, name_b in PAIR_NAMES:
            pair = kuiper.pair(name_a, name_b)
            holder[(name_a, name_b)] = (
                geo_engine.pair_rtt_s(geo_snapshot, *pair),
                kuiper.routing.pair_rtt_s(leo_snapshot, *pair),
            )
        return len(holder)

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = ["# bent-pipe GEO belt (8 satellites) vs Kuiper K1 (+Grid)",
            f"{'pair':>22} {'GEO RTT (ms)':>13} {'LEO RTT (ms)':>13} "
            f"{'GEO/LEO':>8}"]
    for (name_a, name_b), (geo_rtt, leo_rtt) in holder.items():
        rows.append(f"{name_a + '->' + name_b:>22} {geo_rtt * 1000:13.1f} "
                    f"{leo_rtt * 1000:13.1f} {geo_rtt / leo_rtt:8.1f}")

    for geo_rtt, leo_rtt in holder.values():
        assert np.isfinite(geo_rtt) and np.isfinite(leo_rtt)
        assert geo_rtt > 0.4          # "hundreds of milliseconds"
        assert leo_rtt < 0.15         # LEO stays in the tens of ms
        assert geo_rtt > 4.0 * leo_rtt
    write_result("extension_geo_vs_leo", rows)
