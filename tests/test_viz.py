"""Tests for the visualization exporters."""

import json

import numpy as np
import pytest

from repro.viz.czml import (
    constellation_czml,
    constellation_summary,
    trajectory_samples,
    write_czml,
)
from repro.viz.ground_view import reachability_timeline, sky_snapshot
from repro.viz.paths_viz import episode_geography, path_episodes
from repro.viz.utilization_map import (
    UtilizationSegment,
    hotspot_summary,
    utilization_map,
)
from repro.topology.dynamic_state import PairTimeline


class TestCzml:
    def test_trajectory_samples_shape(self, small_constellation):
        samples = trajectory_samples(small_constellation, 30.0, 10.0)
        assert samples["times_s"].shape == (3,)
        assert samples["positions_m"].shape == (3, 100, 3)

    def test_document_structure(self, small_constellation):
        doc = constellation_czml(small_constellation, 20.0, 10.0)
        assert doc[0]["id"] == "document"
        assert len(doc) == 1 + 100
        sat_packet = doc[1]
        assert sat_packet["id"] == "satellite-0"
        cartesian = sat_packet["position"]["cartesian"]
        # (time, x, y, z) quadruples for 2 samples.
        assert len(cartesian) == 4 * 2

    def test_document_json_serializable(self, small_constellation):
        doc = constellation_czml(small_constellation, 20.0, 10.0)
        json.dumps(doc)

    def test_write_czml(self, small_constellation, tmp_path):
        doc = constellation_czml(small_constellation, 20.0, 10.0)
        path = tmp_path / "out.czml"
        write_czml(doc, str(path))
        loaded = json.loads(path.read_text())
        assert loaded[0]["version"] == "1.0"

    def test_validation(self, small_constellation):
        with pytest.raises(ValueError):
            trajectory_samples(small_constellation, 0.0, 1.0)

    def test_summary_latitude_bound(self, small_constellation):
        summary = constellation_summary(small_constellation)
        # A 53 deg shell never exceeds ~53 deg latitude (paper §6's
        # inclination-bounds-coverage argument).
        assert summary["max_abs_latitude_deg"] <= 53.5
        assert summary["max_abs_latitude_deg"] >= 45.0
        assert summary["num_satellites"] == 100
        assert summary["shells"][0]["inclination_deg"] == 53.0


class TestGroundView:
    def test_sky_snapshot_fields(self, small_network):
        station = small_network.ground_stations[0]
        snap = sky_snapshot(small_network.constellation, station, 10.0, 0.0)
        assert snap.num_above_horizon >= snap.num_connectable
        assert (snap.elevations_deg > 0).all()
        assert ((snap.azimuths_deg >= 0) & (snap.azimuths_deg < 360)).all()

    def test_connectable_consistent_with_gsl(self, small_network):
        """The sky view's connectable count equals the snapshot's GSL
        edge count for the same station and elevation."""
        station = small_network.ground_stations[2]
        sky = sky_snapshot(small_network.constellation, station,
                           small_network.min_elevation_deg, 5.0)
        topo = small_network.snapshot(5.0)
        assert sky.num_connectable == \
            len(topo.gsl_edges[2].satellite_ids)

    def test_to_dict(self, small_network):
        station = small_network.ground_stations[0]
        snap = sky_snapshot(small_network.constellation, station, 10.0, 0.0)
        data = snap.to_dict()
        assert len(data["satellites"]) == snap.num_above_horizon

    def test_reachability_timeline(self, small_network):
        station = small_network.ground_stations[1]
        timeline = reachability_timeline(
            small_network.constellation, station, 10.0,
            duration_s=30.0, step_s=10.0)
        assert timeline["times_s"].shape == (3,)
        assert (timeline["num_connectable"]
                <= timeline["num_above_horizon"]).all()

    def test_reachability_validation(self, small_network):
        with pytest.raises(ValueError):
            reachability_timeline(small_network.constellation,
                                  small_network.ground_stations[0],
                                  10.0, duration_s=0.0)


class TestPathEpisodes:
    def _timeline(self):
        times = np.arange(6, dtype=float)
        distances = np.array([1e7, 1e7, 1.2e7, 1.2e7, np.inf, 1e7])
        paths = [(100, 1, 101), (100, 1, 101), (100, 2, 101),
                 (100, 2, 101), None, (100, 1, 101)]
        return PairTimeline(src_gid=0, dst_gid=1, times_s=times,
                            distances_m=distances, paths=paths)

    def test_episode_boundaries(self):
        episodes = path_episodes(self._timeline())
        assert len(episodes) == 4
        assert episodes[0].path == (100, 1, 101)
        assert episodes[0].start_s == 0.0
        assert episodes[0].end_s == 2.0
        assert episodes[2].path is None
        assert episodes[2].hops is None

    def test_episode_rtt_ranges(self):
        episodes = path_episodes(self._timeline())
        assert episodes[1].min_rtt_s == episodes[1].max_rtt_s
        assert episodes[1].min_rtt_s == pytest.approx(
            2 * 1.2e7 / 299_792_458.0)

    def test_empty_timeline(self):
        tl = PairTimeline(src_gid=0, dst_gid=1,
                          times_s=np.empty(0),
                          distances_m=np.empty(0), paths=[])
        assert path_episodes(tl) == []

    def test_episode_geography(self, small_network):
        from repro.sweep import sweep_timelines
        tl = sweep_timelines(small_network, [(0, 3)],
                             np.arange(3.0))[(0, 3)]
        episodes = path_episodes(tl)
        geo = episode_geography(episodes[0], small_network)
        assert geo["waypoints"][0]["kind"] == "gs"
        assert geo["waypoints"][-1]["kind"] == "gs"
        for wp in geo["waypoints"][1:-1]:
            assert wp["kind"] == "satellite"
            assert -90 <= wp["latitude_deg"] <= 90


class TestUtilizationMap:
    def test_segments_merged_and_filtered(self, small_constellation):
        utilization = {(0, 1): 0.5, (1, 0): 0.9, (2, 3): 0.0}
        segments = utilization_map(small_constellation, utilization, 0.0)
        assert len(segments) == 1  # zero-load excluded, directions merged
        assert segments[0].utilization == 0.9
        assert segments[0].sat_a == 0 and segments[0].sat_b == 1

    def test_segment_coordinates_valid(self, small_constellation):
        segments = utilization_map(small_constellation,
                                   {(0, 1): 1.0, (5, 6): 0.2}, 0.0)
        for seg in segments:
            assert -90 <= seg.lat_a <= 90
            assert -180 <= seg.lon_b <= 180

    def test_hotspot_summary(self):
        segments = [
            UtilizationSegment(0, 1, 40.0, -40.0, 45.0, -30.0, 0.95),
            UtilizationSegment(2, 3, 42.0, -35.0, 44.0, -25.0, 0.85),
            UtilizationSegment(4, 5, -10.0, 100.0, -12.0, 110.0, 0.1),
        ]
        summary = hotspot_summary(segments, hot_threshold=0.8)
        assert summary["num_used_isls"] == 3
        assert summary["num_hot_isls"] == 2
        # Hot center is in the (North) Atlantic region of the inputs.
        assert 40.0 < summary["hot_center_lat_deg"] < 45.0
        assert -35.0 < summary["hot_center_lon_deg"] < -25.0

    def test_hotspot_threshold_validation(self):
        with pytest.raises(ValueError):
            hotspot_summary([], hot_threshold=0.0)

    def test_no_hot_isls(self):
        segments = [UtilizationSegment(0, 1, 0, 0, 1, 1, 0.2)]
        summary = hotspot_summary(segments)
        assert summary["num_hot_isls"] == 0
        assert "hot_center_lat_deg" not in summary
