"""Tests for the analysis package (paper §4-§5 metrics)."""

import numpy as np
import pytest

from repro.analysis.bandwidth import unused_bandwidth_stats
from repro.analysis.paths import pair_path_stats
from repro.analysis.rtt import (
    MIN_PAIR_SEPARATION_M,
    pair_rtt_stats,
)
from repro.analysis.timestep import (
    changes_per_step,
    compare_timesteps,
    missed_changes,
    subsample_satellite_sets,
)
from repro.faults import FaultEvent, FaultSchedule
from repro.geo.constants import SPEED_OF_LIGHT_M_PER_S
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.routing.engine import RoutingEngine
from repro.sweep import sweep_timelines
from repro.topology.dynamic_state import PairTimeline
from repro.topology.network import LeoNetwork

from _routing_oracle import scalar_path_and_distance


def _timeline(src, dst, rtts_ms, paths):
    times = np.arange(len(rtts_ms), dtype=float)
    distances = np.array([
        r / 1000.0 / 2.0 * 299_792_458.0 if np.isfinite(r) else np.inf
        for r in rtts_ms
    ])
    return PairTimeline(src_gid=src, dst_gid=dst, times_s=times,
                        distances_m=distances, paths=list(paths))


@pytest.fixture
def stations():
    return [
        GroundStation(0, "A", GeodeticPosition(0.0, 0.0)),
        GroundStation(1, "B", GeodeticPosition(0.0, 90.0)),
        GroundStation(2, "C-near-A", GeodeticPosition(0.5, 0.5)),
    ]


class TestPairRttStats:
    def test_basic_stats(self, stations):
        timelines = {(0, 1): _timeline(0, 1, [80, 90, 100, 85],
                                       [(9,), (9,), (10,), (9,)])}
        stats = pair_rtt_stats(timelines, stations)
        assert len(stats) == 1
        s = stats[0]
        assert s.min_rtt_s == pytest.approx(0.080)
        assert s.max_rtt_s == pytest.approx(0.100)
        assert s.rtt_spread_s == pytest.approx(0.020)
        assert s.max_over_min == pytest.approx(100 / 80)
        assert s.connected_fraction == 1.0
        # Quarter circumference geodesic RTT is ~66.7 ms, so max RTT over
        # geodesic is ~1.5.
        assert 1.3 < s.max_over_geodesic < 1.7

    def test_close_pairs_excluded(self, stations):
        timelines = {(0, 2): _timeline(0, 2, [10, 10], [(1,), (1,)]),
                     (0, 1): _timeline(0, 1, [80, 90], [(9,), (9,)])}
        kept = pair_rtt_stats(timelines, stations)
        assert [(s.src_gid, s.dst_gid) for s in kept] == [(0, 1)]

    def test_disconnection_handling(self, stations):
        timelines = {(0, 1): _timeline(0, 1, [80, np.inf, 90],
                                       [(9,), None, (9,)])}
        stats = pair_rtt_stats(timelines, stations)
        assert stats[0].connected_fraction == pytest.approx(2 / 3)
        assert stats[0].max_rtt_s == pytest.approx(0.090)
        strict = pair_rtt_stats(timelines, stations,
                                require_always_connected=True)
        assert strict == []

    def test_never_connected_skipped(self, stations):
        timelines = {(0, 1): _timeline(0, 1, [np.inf], [None])}
        assert pair_rtt_stats(timelines, stations) == []


class TestPairRttStatsOverSweep:
    """The Figs. 6-7 chain — ``sweep_timelines`` -> ``pair_rtt_stats`` —
    against the scalar walk, one snapshot and one pair at a time."""

    def test_equals_per_snapshot_oracle_bit_for_bit(
            self, small_constellation, small_stations):
        faults = FaultSchedule([FaultEvent.gsl_cut(4, 2.0, 5.0),
                                FaultEvent.satellite_outage(7, 1.0, 4.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        pairs = [(src, dst) for src in range(6)
                 for dst in range(src + 1, 6)]
        times = np.arange(8.0)
        timelines = sweep_timelines(network, pairs, times)
        stats = pair_rtt_stats(timelines, small_stations)
        assert [(s.src_gid, s.dst_gid) for s in stats] == pairs
        oracle_engine = RoutingEngine(network)
        sometimes = 0
        for s in stats:
            rtts = []
            for time_s in times:
                snapshot = network.snapshot(float(time_s))
                routing = oracle_engine.route_to_many(
                    snapshot, [s.dst_gid]).routing_for(s.dst_gid)
                _, distance = scalar_path_and_distance(routing, snapshot,
                                                       s.src_gid)
                rtts.append(2.0 * distance / SPEED_OF_LIGHT_M_PER_S)
            connected = [rtt for rtt in rtts if rtt != float("inf")]
            assert s.min_rtt_s == min(connected)
            assert s.max_rtt_s == max(connected)
            assert s.connected_fraction == len(connected) / len(times)
            sometimes += len(connected) < len(times)
        assert 0 < sometimes < len(stats)
        strict = pair_rtt_stats(timelines, small_stations,
                                require_always_connected=True)
        assert strict == [s for s in stats if s.connected_fraction == 1.0]


class TestPairPathStats:
    def test_counts_and_hops(self):
        paths = [(100, 1, 2, 101), (100, 1, 2, 101), (100, 3, 101),
                 (100, 3, 101)]
        timelines = {(0, 1): _timeline(0, 1, [80, 80, 70, 70], paths)}
        stats = pair_path_stats(timelines, num_satellites=100)
        assert len(stats) == 1
        s = stats[0]
        assert s.num_path_changes == 1
        assert s.min_hops == 2
        assert s.max_hops == 3
        assert s.hop_spread == 1
        assert s.hop_ratio == pytest.approx(1.5)

    def test_disconnections_count_as_changes(self):
        paths = [(100, 1, 101), None, (100, 1, 101)]
        timelines = {(0, 1): _timeline(0, 1, [80, np.inf, 80], paths)}
        stats = pair_path_stats(timelines, num_satellites=100)
        assert stats[0].num_path_changes == 2

    def test_never_connected_skipped(self):
        timelines = {(0, 1): _timeline(0, 1, [np.inf, np.inf],
                                       [None, None])}
        assert pair_path_stats(timelines, num_satellites=100) == []


class TestTimestep:
    def test_subsample(self):
        sets = [frozenset({i}) for i in range(10)]
        sub = subsample_satellite_sets(sets, 3)
        assert sub == [frozenset({0}), frozenset({3}), frozenset({6}),
                       frozenset({9})]

    def test_subsample_validation(self):
        with pytest.raises(ValueError):
            subsample_satellite_sets([], 0)

    def test_missed_changes_none_for_slow_changes(self):
        # One change, far apart: coarse step still sees it.
        sets = ([frozenset({1})] * 5) + ([frozenset({2})] * 5)
        assert missed_changes(sets, 2) == 0

    def test_missed_changes_for_flapping(self):
        # Change at every fine step; factor-2 subsampling keeps only half
        # the transitions.
        sets = [frozenset({i % 2}) for i in range(9)]
        assert missed_changes(sets, 2) == 8  # coarse sees constant {0}

    def test_changes_per_step(self):
        a = [frozenset({1}), frozenset({1}), frozenset({2})]
        b = [frozenset({5}), frozenset({6}), frozenset({6})]
        counts = changes_per_step([a, b])
        np.testing.assert_array_equal(counts, [1, 1])

    def test_changes_per_step_validation(self):
        with pytest.raises(ValueError):
            changes_per_step([[frozenset()], [frozenset(), frozenset()]])

    def test_compare_timesteps(self):
        paths_fast = [(100, i % 2, 101) for i in range(20)]
        paths_slow = [(100, 7, 101)] * 20
        timelines = {
            (0, 1): _timeline(0, 1, [50] * 20, paths_fast),
            (2, 3): _timeline(2, 3, [60] * 20, paths_slow),
        }
        comparisons = compare_timesteps(timelines, num_satellites=100,
                                        factors=(2, 5))
        assert comparisons[0].factor == 2
        # The flapping pair misses changes; the stable pair misses none.
        assert comparisons[0].fraction_missing_at_least(1) == 0.5
        # The pair flips parity every step: factor-2 subsampling sees a
        # constant path and misses all 19 transitions.
        np.testing.assert_array_equal(
            sorted(comparisons[0].missed_per_pair), [0, 19])


class TestUnusedBandwidth:
    def test_basic(self):
        series = np.array([0.0, 5e6, 2e6, np.nan, 0.05e6])
        stats = unused_bandwidth_stats(series, 10e6)
        assert stats.connected_fraction == pytest.approx(0.8)
        assert stats.fraction_above_third == pytest.approx(1 / 4)
        assert stats.fraction_fully_used == pytest.approx(2 / 4)
        assert stats.mean_unused_bps == pytest.approx(
            (0 + 5e6 + 2e6 + 0.05e6) / 4)

    def test_all_disconnected(self):
        stats = unused_bandwidth_stats(np.array([np.nan, np.nan]), 10e6)
        assert stats.connected_fraction == 0.0
        assert np.isnan(stats.mean_unused_bps)

    def test_validation(self):
        with pytest.raises(ValueError):
            unused_bandwidth_stats(np.array([1.0]), 0.0)


class TestCoverage:
    def test_shapes_and_ranges(self, small_constellation):
        from repro.analysis.coverage import coverage_by_latitude
        results = coverage_by_latitude(small_constellation, 10.0,
                                       latitudes_deg=[0, 45, 90])
        assert [r.latitude_deg for r in results] == [0.0, 45.0, 90.0]
        for r in results:
            assert 0.0 <= r.covered_fraction <= 1.0
            assert r.mean_visible >= 0.0

    def test_53deg_shell_misses_pole(self, small_constellation):
        from repro.analysis.coverage import coverage_by_latitude
        results = coverage_by_latitude(small_constellation, 30.0,
                                       latitudes_deg=[0, 90])
        equator, pole = results
        assert equator.covered_fraction > 0.0
        assert pole.covered_fraction == 0.0


class TestContacts:
    def test_windows_cover_visibility(self, small_constellation,
                                      small_stations):
        from repro.analysis.contacts import contact_windows
        windows = contact_windows(small_constellation, small_stations[0],
                                  10.0, duration_s=600.0, step_s=10.0)
        assert windows
        for w in windows:
            assert w.end_s > w.start_s
            assert 0.0 <= w.start_s < 600.0 + 10.0

    def test_boundary_windows_truncated(self, small_constellation,
                                        small_stations):
        from repro.analysis.contacts import contact_windows
        windows = contact_windows(small_constellation, small_stations[0],
                                  10.0, duration_s=600.0, step_s=10.0)
        for w in windows:
            if w.start_s == 0.0 or w.end_s >= 600.0:
                assert w.truncated

    def test_statistics(self):
        from repro.analysis.contacts import (ContactWindow,
                                             contact_statistics)
        windows = [
            ContactWindow(1, 0.0, 100.0, truncated=True),
            ContactWindow(2, 50.0, 250.0, truncated=False),
            ContactWindow(3, 100.0, 200.0, truncated=False),
        ]
        stats = contact_statistics(windows)
        assert stats["num_contacts"] == 2
        assert stats["median_duration_s"] == pytest.approx(150.0)
        assert stats["max_duration_s"] == pytest.approx(200.0)

    def test_statistics_empty(self):
        from repro.analysis.contacts import contact_statistics
        stats = contact_statistics([])
        assert stats["num_contacts"] == 0
        assert np.isnan(stats["median_duration_s"])

    def test_validation(self, small_constellation, small_stations):
        from repro.analysis.contacts import contact_windows
        with pytest.raises(ValueError):
            contact_windows(small_constellation, small_stations[0], 10.0,
                            duration_s=0.0)
