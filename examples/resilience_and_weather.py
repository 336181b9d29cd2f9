#!/usr/bin/env python3
"""Reliability extensions: failures, storms, and multipath (paper §7).

Three quick studies on Kuiper K1 that the paper lists as future work:

1. kill a satellite on the Manila-Dalian path — +Grid routes around it;
2. put a storm over Dalian — moderate rain reroutes, severe rain cuts
   the city off until the storm passes;
3. split a flow across edge-disjoint paths — the §5.4 traffic-engineering
   takeaway, quantified.

Run:  python examples/resilience_and_weather.py
"""

import math

import numpy as np

from repro import Hypatia
from repro.constellations.builder import Constellation
from repro.constellations.definitions import KUIPER_K1
from repro.faults import FaultEvent, FaultSchedule
from repro.ground.stations import ground_stations_from_cities
from repro.routing.engine import RoutingEngine
from repro.routing.multipath import edge_disjoint_paths
from repro.topology.network import LeoNetwork


def main() -> None:
    stations = ground_stations_from_cities(count=100)
    constellation = Constellation([KUIPER_K1])
    healthy = LeoNetwork(constellation, stations, min_elevation_deg=30.0)
    engine = RoutingEngine(healthy)
    src = next(s.gid for s in stations if s.name == "Manila")
    dst = next(s.gid for s in stations if s.name == "Dalian")
    snapshot = healthy.snapshot(0.0)

    print("1) Satellite failure")
    path = engine.path(snapshot, src, dst)
    rtt = engine.pair_rtt_s(snapshot, src, dst)
    victim = path[1]  # the ingress satellite
    print(f"   healthy: {len(path) - 1} hops, {rtt * 1000:.1f} ms, "
          f"ingress satellite {victim}")
    dead = FaultSchedule([
        FaultEvent.satellite_outage(victim, 0.0, math.inf)])
    degraded = LeoNetwork(constellation, stations, min_elevation_deg=30.0,
                          faults=dead)
    degraded_engine = RoutingEngine(degraded)
    degraded_rtt = degraded_engine.pair_rtt_s(degraded.snapshot(0.0),
                                              src, dst)
    print(f"   satellite {victim} failed: rerouted at "
          f"{degraded_rtt * 1000:.1f} ms "
          f"(+{(degraded_rtt - rtt) * 1000:.2f} ms)")

    print("\n2) Storm over Dalian")
    for label, penalty in [("moderate (+15 deg)", 15.0),
                           ("severe (outage)", 90.0)]:
        rain = FaultSchedule([
            FaultEvent.gsl_attenuation(dst, 0.0, 3600.0, penalty)])
        rainy = LeoNetwork(constellation, stations, min_elevation_deg=30.0,
                           faults=rain)
        rainy_rtt = RoutingEngine(rainy).pair_rtt_s(rainy.snapshot(0.0),
                                                    src, dst)
        if np.isfinite(rainy_rtt):
            print(f"   {label}: connected at {rainy_rtt * 1000:.1f} ms")
        else:
            print(f"   {label}: Dalian unreachable until the storm passes")

    print("\n3) Multipath headroom (Manila -> Dalian)")
    disjoint = edge_disjoint_paths(snapshot, src, dst, max_paths=3)
    for i, (p, d) in enumerate(disjoint, 1):
        one_way_ms = d / 299_792_458.0 * 1000
        print(f"   disjoint path {i}: {len(p) - 1} hops, "
              f"{2 * one_way_ms:.1f} ms RTT")
    print(f"   {len(disjoint)} edge-disjoint paths exist: traffic split "
          f"across them shares no bottleneck (see the multipath TE "
          f"benchmark for the aggregate gain).")


if __name__ == "__main__":
    main()
