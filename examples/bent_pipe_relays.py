#!/usr/bin/env python3
"""Bent-pipe connectivity through ground relays (paper Appendix A).

Some proposed constellations carry no inter-satellite links: long-distance
traffic must bounce up and down through ground station relays.  This
example builds Kuiper K1 twice — with +Grid ISLs and without any — adds a
relay grid between Paris and Moscow, and compares the paths and RTTs.

Run:  python examples/bent_pipe_relays.py
"""

import numpy as np

from repro import Hypatia
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import relay_grid_between


def path_description(hypatia, path):
    num_sats = hypatia.network.num_satellites
    parts = []
    for node in path:
        if node < num_sats:
            parts.append(f"sat{node}")
        else:
            station = hypatia.ground_stations[node - num_sats]
            parts.append(station.name)
    return " -> ".join(parts)


def main() -> None:
    relays = relay_grid_between(GeodeticPosition(48.86, 2.35),   # Paris
                                GeodeticPosition(55.76, 37.62),  # Moscow
                                rows=4, columns=6)
    print(f"Relay grid: {len(relays)} candidate ground relays between "
          f"Paris and Moscow")

    isl = Hypatia.from_shell_name("K1", num_cities=100)
    bent = Hypatia.from_shell_name("K1", num_cities=100, isl_builder="none",
                                   extra_stations=relays)

    for label, hypatia in [("with ISLs", isl), ("bent pipe", bent)]:
        pair = hypatia.pair("Paris", "Moscow")
        timeline = hypatia.compute_timelines([pair], duration_s=60.0,
                                             step_s=2.0)[pair]
        rtts = timeline.rtts_s
        finite = rtts[np.isfinite(rtts)] * 1000
        snapshot = hypatia.snapshot(0.0)
        path = hypatia.routing.path(snapshot, *pair)
        print(f"\n=== {label} ===")
        print(f"path at t=0: {path_description(hypatia, path)}")
        print(f"RTT over 60 s: {finite.min():.1f}-{finite.max():.1f} ms "
              f"(mean {finite.mean():.1f} ms)")

    print("\nTakeaway (paper Appendix A): the bent-pipe path is typically "
          "a few ms slower — every relay bounce adds an up-down leg — and "
          "data and ACKs share the satellites' GSL devices, perturbing "
          "TCP (run the fig19 benchmark for that effect).")


if __name__ == "__main__":
    main()
