"""Tests for the parallel snapshot-sweep engine (repro.sweep)."""

import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.sweep import (
    ISL_BUILDERS,
    NetworkSpec,
    engine,
    isl_builder_name,
    register_isl_builder,
    resolve_workers,
    shard_snapshots,
    sweep_timelines,
)
from repro.topology.dynamic_state import snapshot_times
from repro.topology.isl import no_isls, plus_grid_isls, single_ring_isls


class TestShardSnapshots:
    def test_covers_exactly_once_in_order(self):
        for total in (1, 2, 7, 100):
            for chunks in (1, 2, 3, 4, 16):
                shards = shard_snapshots(total, chunks)
                indices = [i for start, stop in shards
                           for i in range(start, stop)]
                assert indices == list(range(total))

    def test_balanced(self):
        shards = shard_snapshots(10, 3)
        sizes = [stop - start for start, stop in shards]
        assert sizes == [4, 3, 3]
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_chunks_than_snapshots(self):
        assert len(shard_snapshots(2, 8)) == 2
        assert shard_snapshots(0, 4) == [(0, 0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_snapshots(-1, 2)
        with pytest.raises(ValueError):
            shard_snapshots(5, 0)


class TestResolveWorkers:
    def test_none_and_one_are_serial(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1

    def test_zero_means_all_cores(self):
        import os
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestNetworkSpec:
    def test_roundtrip_is_bit_identical(self, small_network):
        spec = NetworkSpec.from_network(small_network)
        rebuilt = spec.build()
        original = small_network.snapshot(17.0)
        copy = rebuilt.snapshot(17.0)
        assert np.array_equal(original.satellite_positions_m,
                              copy.satellite_positions_m)
        assert np.array_equal(original.isl_lengths_m, copy.isl_lengths_m)
        for gid in range(small_network.num_ground_stations):
            assert np.array_equal(original.gsl_edges[gid].satellite_ids,
                                  copy.gsl_edges[gid].satellite_ids)
            assert np.array_equal(original.gsl_edges[gid].lengths_m,
                                  copy.gsl_edges[gid].lengths_m)

    def test_spec_pickles(self, small_network):
        import pickle
        spec = NetworkSpec.from_network(small_network)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_builtin_builders_resolve_by_name(self):
        assert isl_builder_name(plus_grid_isls) == "plus_grid"
        assert isl_builder_name(single_ring_isls) == "single_ring"
        assert isl_builder_name(no_isls) == "none"

    def test_unregistered_builder_raises(self, small_constellation,
                                         small_stations):
        from repro.topology.network import LeoNetwork

        def custom_builder(constellation):
            return plus_grid_isls(constellation)

        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0,
                             isl_builder=custom_builder)
        with pytest.raises(ValueError, match="workers=1"):
            NetworkSpec.from_network(network)

    def test_register_then_resolve(self, small_constellation,
                                   small_stations):
        from repro.topology.network import LeoNetwork

        def custom_builder(constellation):
            return single_ring_isls(constellation)

        register_isl_builder("test_custom_ring", custom_builder)
        try:
            network = LeoNetwork(small_constellation, small_stations,
                                 min_elevation_deg=10.0,
                                 isl_builder=custom_builder)
            spec = NetworkSpec.from_network(network)
            assert spec.isl_builder == "test_custom_ring"
            rebuilt = spec.build()
            assert np.array_equal(rebuilt.isl_pairs, network.isl_pairs)
        finally:
            del ISL_BUILDERS["test_custom_ring"]

    def test_register_name_conflict_rejected(self):
        with pytest.raises(ValueError):
            register_isl_builder("plus_grid", no_isls)
        # Re-registering the same callable is an idempotent no-op.
        register_isl_builder("plus_grid", plus_grid_isls)

    def test_unknown_builder_name_rejected(self, small_network):
        spec = NetworkSpec.from_network(small_network)
        import dataclasses
        with pytest.raises(ValueError, match="unknown ISL builder"):
            dataclasses.replace(spec, isl_builder="no_such_builder")


class TestSweepTimelines:
    def _serial(self, network, pairs, duration_s, step_s):
        return sweep_timelines(network, pairs,
                               snapshot_times(duration_s, step_s))

    def test_parallel_matches_serial_bitwise(self, small_network):
        pairs = [(0, 3), (1, 4), (2, 5)]
        times = snapshot_times(10.0, 1.0)
        serial = self._serial(small_network, pairs, 10.0, 1.0)
        spec = NetworkSpec.from_network(small_network)
        parallel = sweep_timelines(spec, pairs, times, workers=3)
        assert set(parallel) == set(serial)
        for pair in pairs:
            assert np.array_equal(parallel[pair].distances_m,
                                  serial[pair].distances_m,
                                  equal_nan=True)
            assert parallel[pair].paths == serial[pair].paths
            assert np.array_equal(parallel[pair].times_s,
                                  serial[pair].times_s)

    def test_more_workers_than_snapshots(self, small_network):
        pairs = [(0, 3)]
        times = snapshot_times(2.0, 1.0)  # 2 snapshots
        spec = NetworkSpec.from_network(small_network)
        parallel = sweep_timelines(spec, pairs, times, workers=8)
        serial = self._serial(small_network, pairs, 2.0, 1.0)
        assert np.array_equal(parallel[(0, 3)].distances_m,
                              serial[(0, 3)].distances_m, equal_nan=True)

    def test_single_snapshot_stays_serial(self, small_network):
        spec = NetworkSpec.from_network(small_network)
        result = sweep_timelines(spec, [(0, 3)], np.array([0.0]),
                                 workers=4)
        assert len(result[(0, 3)].times_s) == 1

    def test_empty_pairs_rejected(self, small_network):
        spec = NetworkSpec.from_network(small_network)
        for source in (spec, small_network):
            for workers in (None, 2):
                with pytest.raises(ValueError, match="at least one pair"):
                    sweep_timelines(source, [], snapshot_times(5.0, 1.0),
                                    workers=workers)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_equal_endpoints_rejected_on_every_entry_point(
            self, small_network, workers, tmp_path):
        """Regression: only ``DynamicState`` checked, so a (g, g) pair
        handed to the sweep itself came back as an up-and-down distance
        (2 930 529 m for Quito -> Quito on the 8x8 lab shell) where
        ``pair_distance_m`` answers 0."""
        from repro.core.hypatia import Hypatia
        from repro.service import sweep_with_checkpoint
        spec = NetworkSpec.from_network(small_network)
        times = snapshot_times(3.0, 1.0)
        hypatia = Hypatia.__new__(Hypatia)
        hypatia.network = small_network
        for sweep in (
                lambda pairs: sweep_timelines(spec, pairs, times,
                                              workers=workers),
                lambda pairs: sweep_timelines(small_network, pairs, times,
                                              workers=workers),
                lambda pairs: hypatia.compute_timelines(
                    pairs, 3.0, 1.0, workers=workers),
                lambda pairs: sweep_with_checkpoint(
                    spec, pairs, times, str(tmp_path / "never.ckpt"), 2,
                    workers=workers)):
            with pytest.raises(ValueError, match="equal endpoints"):
                sweep([(0, 3), (2, 2)])
        assert not (tmp_path / "never.ckpt").exists()

    def test_metrics_recorded(self, small_network):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        spec = NetworkSpec.from_network(small_network)
        times = snapshot_times(8.0, 1.0)
        sweep_timelines(spec, [(0, 3)], times, workers=2,
                        metrics=registry)
        assert registry.gauges["sweep.workers"].value == 2.0
        assert registry.gauges["sweep.wall_s"].value > 0.0
        assert registry.counters["sweep.snapshots"].value == len(times)
        counts = 0.0
        for index in range(2):
            prefix = f"sweep.worker.{index}."
            assert len(registry.series_logs[prefix + "wall_s"].values) == 1
            assert len(registry.series_logs[prefix + "build_s"].values) == 1
            counts += registry.series_logs[prefix + "snapshots"].values[0]
        assert counts == len(times)

    def test_serial_path_also_records_metrics(self, small_network):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        spec = NetworkSpec.from_network(small_network)
        sweep_timelines(spec, [(0, 3)], snapshot_times(3.0, 1.0),
                        workers=1, metrics=registry)
        assert registry.gauges["sweep.workers"].value == 1.0
        assert "sweep.worker.0.wall_s" in registry.series_logs


class TestSharedMemoryArrays:
    """The static ISL array every chunk payload carries by value (the
    class keeps the name it had when a shared-memory transport carried
    it, so the test id is stable)."""

    def test_spec_static_isl_pairs_matches_build(self, small_network):
        spec = NetworkSpec.from_network(small_network)
        assert np.array_equal(spec.static_isl_pairs(),
                              small_network.isl_pairs)
        rebuilt = spec.build(isl_pairs=spec.static_isl_pairs())
        assert np.array_equal(rebuilt.isl_pairs, small_network.isl_pairs)
        # Regression: the rebuilt network carried an unregistered closure
        # as its ISL builder and could not be turned back into a spec.
        assert NetworkSpec.from_network(rebuilt) == spec


class TestWorkerFailure:
    """A dying worker must fail the sweep loudly and leave nothing behind."""

    PAIRS = [(0, 3), (1, 4)]
    TIMES = snapshot_times(6.0, 1.0)

    def _sweep_with_failing_second_chunk(self, monkeypatch, network, fail):
        real_chunk = engine._compute_chunk
        second_chunk_start = self.TIMES[shard_snapshots(
            len(self.TIMES), 2)[1][0]]

        def chunk(spec, pairs, times_s, **kwargs):
            if times_s[0] == second_chunk_start:
                fail()
            return real_chunk(spec, pairs, times_s, **kwargs)

        # Fork children inherit the patched module global.
        monkeypatch.setattr(engine, "_compute_chunk", chunk)
        shm_before = (sorted(os.listdir("/dev/shm"))
                      if os.path.isdir("/dev/shm") else None)
        children_before = set(multiprocessing.active_children())
        started = time.perf_counter()
        try:
            sweep_timelines(NetworkSpec.from_network(network), self.PAIRS,
                            self.TIMES, workers=2)
        finally:
            assert time.perf_counter() - started < 60.0
            assert set(multiprocessing.active_children()) \
                == children_before
            if shm_before is not None:
                assert sorted(os.listdir("/dev/shm")) == shm_before

    def test_worker_exception_surfaces(self, monkeypatch, small_network):
        def fail():
            raise RuntimeError("chunk exploded")

        with pytest.raises(RuntimeError, match="chunk exploded"):
            self._sweep_with_failing_second_chunk(
                monkeypatch, small_network, fail)

    def test_killed_worker_breaks_pool(self, monkeypatch, small_network):
        def fail():
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(BrokenProcessPool):
            self._sweep_with_failing_second_chunk(
                monkeypatch, small_network, fail)

    def test_removed_transport_switch_rejected(self, small_network):
        spec = NetworkSpec.from_network(small_network)
        for removed in ({"use_shared_memory": False},
                        {"mp_context": multiprocessing.get_context("fork")}):
            with pytest.raises(TypeError):
                sweep_timelines(spec, self.PAIRS, self.TIMES, **removed)
        from repro.service import resume_sweep
        with pytest.raises(TypeError):
            resume_sweep("unread.ckpt", mp_context=None)
        with pytest.raises(TypeError):
            small_network.snapshot(0.0).to_networkx(weight="delay_s")


class TestDynamicStateWorkers:
    def test_compute_workers_matches_serial(self, small_network):
        """A built network and its spec are the same ``source``, serial
        and sharded."""
        pairs = [(0, 3), (2, 4)]
        times = snapshot_times(6.0, 1.0)
        serial = sweep_timelines(small_network, pairs, times)
        spec = NetworkSpec.from_network(small_network)
        for source, workers in ((small_network, 2), (spec, None),
                                (spec, 2)):
            other = sweep_timelines(source, pairs, times, workers=workers)
            assert list(other) == list(serial)
            for pair in pairs:
                assert np.array_equal(other[pair].distances_m,
                                      serial[pair].distances_m,
                                      equal_nan=True)
                assert other[pair].paths == serial[pair].paths

    def test_unregistered_builder_walks_serially(self, small_constellation,
                                                 small_stations):
        from repro.topology.dynamic_state import compute_pair_chunk
        from repro.topology.network import LeoNetwork

        def custom_builder(constellation):
            return plus_grid_isls(constellation)

        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0,
                             isl_builder=custom_builder)
        pairs = [(0, 3), (2, 4)]
        times = snapshot_times(4.0, 1.0)
        walked = sweep_timelines(network, pairs, times)
        chunk = compute_pair_chunk(network, pairs, times)
        assert list(walked) == list(chunk) == pairs
        for pair, (distances, paths) in chunk.items():
            assert np.array_equal(walked[pair].distances_m, distances)
            assert walked[pair].paths == paths
            assert walked[pair].times_s is times
        with pytest.raises(ValueError, match="register_isl_builder"):
            sweep_timelines(network, pairs, times, workers=2)

    def test_needs_a_spec_or_a_network(self, small_network):
        times = snapshot_times(2.0, 1.0)
        with pytest.raises(ValueError, match="NetworkSpec or a built"):
            sweep_timelines(None, [(0, 3)], times)
        with pytest.raises(TypeError):  # one source, not a pair of them
            sweep_timelines(None, [(0, 3)], times, network=small_network)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_compute_publishes_the_sweep_instruments(self, small_network,
                                                     workers):
        from repro.obs import MetricsRegistry
        pairs = [(0, 3), (2, 4)]
        times = snapshot_times(6.0, 1.0)
        from_state, from_sweep = MetricsRegistry(), MetricsRegistry()
        sweep_timelines(small_network, pairs, times, workers=workers,
                        metrics=from_state)
        sweep_timelines(NetworkSpec.from_network(small_network), pairs,
                        times, workers=workers, metrics=from_sweep)
        for kind in ("gauges", "counters", "series_logs"):
            assert sorted(getattr(from_state, kind)) \
                == sorted(getattr(from_sweep, kind))
        chunks = workers or 1
        assert sorted(from_state.series_logs) == sorted(
            f"sweep.worker.{index}.{name}" for index in range(chunks)
            for name in ("wall_s", "build_s", "snapshots", "pid",
                         "chunk_start", "chunk_stop"))
        for registry in (from_state, from_sweep):
            assert registry.counters["sweep.snapshots"].value == 6.0
            assert registry.gauges["sweep.workers"].value == chunks

    def test_compute_rejects_negative_workers(self, small_network):
        with pytest.raises(ValueError):
            sweep_timelines(small_network, [(0, 3)],
                            snapshot_times(2.0, 1.0), workers=-1)


class TestSweepCli:
    def test_sweep_command_serial(self, capsys, tmp_path):
        from repro.cli import main
        out = tmp_path / "sweep.json"
        code = main(["sweep", "K1", "--cities", "6", "--duration", "4",
                     "--step", "2", "-o", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "6 pairs x 2 snapshots" in captured
        assert "1 worker(s)" in captured
        import json
        payload = json.loads(out.read_text())
        assert payload["workers"] == 1
        assert len(payload["pairs"]) == 6
        assert "sweep.wall_s" in payload["metrics"]["gauges"]
