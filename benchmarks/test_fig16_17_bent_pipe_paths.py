"""Figs. 16-17: Paris-Moscow connectivity, ISLs vs bent-pipe GS relays.

Paper Appendix A: with ISLs, the path goes up, rides lasers, and comes
down; without ISLs ("bent pipe"), it bounces between satellites and a grid
of candidate GS relays placed between the endpoints.  This bench builds
both networks, extracts the paths at the two instants the paper renders
(t ~ 0 and t ~ 159 s), and exports their waypoint geography.
"""

import pytest

from repro import Hypatia
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import relay_grid_between
from repro.viz.paths_viz import PathEpisode, episode_geography

from _common import write_result

SNAPSHOT_TIMES = [0.0, 159.0]


def _relay_grid():
    return relay_grid_between(GeodeticPosition(48.86, 2.35),
                              GeodeticPosition(55.76, 37.62),
                              rows=4, columns=6)


def test_fig16_17_isl_vs_bent_pipe_paths(benchmark):
    holder = {}

    def build_and_route():
        isl = Hypatia.from_shell_name("K1", num_cities=100)
        bent = Hypatia.from_shell_name("K1", num_cities=100,
                                       isl_builder="none",
                                       extra_stations=_relay_grid())
        holder["isl"] = (isl, isl.pair("Paris", "Moscow"))
        holder["bent"] = (bent, bent.pair("Paris", "Moscow"))
        count = 0
        for label in ("isl", "bent"):
            hypatia, pair = holder[label]
            for t in SNAPSHOT_TIMES:
                path = hypatia.routing.path(hypatia.snapshot(t), *pair)
                holder[(label, t)] = path
                count += path is not None
        return count

    benchmark.pedantic(build_and_route, rounds=1, iterations=1)

    rows = ["# Paris -> Moscow over K1"]
    for label in ("isl", "bent"):
        hypatia, _ = holder[label]
        num_sats = hypatia.network.num_satellites
        for t in SNAPSHOT_TIMES:
            path = holder[(label, t)]
            rows.append(f"\n== {label} t={t:.0f}s ==")
            if path is None:
                rows.append("(disconnected)")
                continue
            kinds = []
            for node in path:
                if node < num_sats:
                    kinds.append("sat")
                else:
                    station = hypatia.ground_stations[node - num_sats]
                    kinds.append("relay" if station.is_relay else "gs")
            rows.append(" -> ".join(kinds))
            episode = PathEpisode(start_s=t, end_s=t + 1.0,
                                  path=tuple(path), min_rtt_s=0.0,
                                  max_rtt_s=0.0)
            geo = episode_geography(episode, hypatia.network)
            rows.append("waypoints: " + ", ".join(
                f"({wp['latitude_deg']:.0f},{wp['longitude_deg']:.0f})"
                for wp in geo["waypoints"]))

    # Shape checks: the ISL path uses exactly one up and one down GSL with
    # satellites between; the bent-pipe path alternates and uses relays.
    for t in SNAPSHOT_TIMES:
        isl_path = holder[("isl", t)]
        assert isl_path is not None
        isl_hypatia, _ = holder["isl"]
        interior = isl_path[1:-1]
        assert all(n < isl_hypatia.network.num_satellites for n in interior)

        bent_path = holder[("bent", t)]
        assert bent_path is not None
        bent_hypatia, _ = holder["bent"]
        n_sats = bent_hypatia.network.num_satellites
        sat_count = sum(1 for n in bent_path if n < n_sats)
        relay_count = sum(
            1 for n in bent_path
            if n >= n_sats
            and bent_hypatia.ground_stations[n - n_sats].is_relay)
        assert sat_count >= 2, "bent pipe needs multiple bounces"
        assert relay_count >= 1, "paper's scenario uses GS relays"
        # No two satellites adjacent (there are no ISLs).
        for a, b in zip(bent_path, bent_path[1:]):
            assert not (a < n_sats and b < n_sats)
    write_result("fig16_17_bent_pipe_paths", rows)
