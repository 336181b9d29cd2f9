"""Tests for the traffic subsystem (repro.traffic): gravity matrices,
stochastic flow churn, and flow-completion-time reporting."""

import json

import numpy as np
import pytest

from repro import random_permutation_pairs
from repro.fluid.aimd import AimdFluidSimulation
from repro.fluid.engine import FluidFlow, FluidSimulation
from repro.ground.cities import top_cities
from repro.traffic import (
    FCT_BUCKETS,
    FlowArrivalProcess,
    FlowRequest,
    TrafficMatrix,
    WorkloadSchedule,
    WorkloadSpawner,
)
from repro.traffic.spawner import packet_fct_section

pytestmark = pytest.mark.traffic


class TestTrafficMatrix:
    def test_gravity_shape_and_normalization(self):
        matrix = TrafficMatrix.gravity(count=20, total_offered_bps=5e8)
        assert matrix.num_stations == 20
        assert matrix.kind == "gravity"
        assert matrix.total_offered_bps == pytest.approx(5e8)
        assert np.diagonal(matrix.demand_bps).sum() == 0.0
        assert (matrix.demand_bps >= 0.0).all()

    def test_gravity_is_deterministic(self):
        first = TrafficMatrix.gravity(count=15, total_offered_bps=1e8)
        second = TrafficMatrix.gravity(count=15, total_offered_bps=1e8)
        assert first == second
        assert np.array_equal(first.demand_bps, second.demand_bps)

    def test_gravity_prefers_bigger_closer_cities(self):
        cities = top_cities(30)
        matrix = TrafficMatrix.gravity(cities=cities,
                                       total_offered_bps=1e9,
                                       distance_exponent=1.0)
        # Row sums follow population: the top city offers more than
        # the 30th.
        rows = matrix.demand_bps.sum(axis=1)
        assert rows[0] > rows[-1]

    def test_gravity_exponent_zero_is_pure_population(self):
        cities = top_cities(10)
        matrix = TrafficMatrix.gravity(cities=cities,
                                       total_offered_bps=1e6,
                                       distance_exponent=0.0)
        pops = np.array([float(c.population) for c in cities])
        expected = np.outer(pops, pops)
        np.fill_diagonal(expected, 0.0)
        expected *= 1e6 / expected.sum()
        np.testing.assert_allclose(matrix.demand_bps, expected)

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            TrafficMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            TrafficMatrix(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="non-negative"):
            TrafficMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            TrafficMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            TrafficMatrix.gravity(count=1)
        with pytest.raises(ValueError):
            TrafficMatrix.gravity(count=5, total_offered_bps=0.0)
        with pytest.raises(ValueError):
            TrafficMatrix.permutation(10, rate_bps=-1.0)

    def test_matrix_is_read_only(self):
        matrix = TrafficMatrix.permutation(6)
        with pytest.raises(ValueError):
            matrix.demand_bps[0, 1] = 5.0

    def test_normalized_to(self):
        matrix = TrafficMatrix.gravity(count=8, total_offered_bps=1e6)
        scaled = matrix.normalized_to(3e6)
        assert scaled.total_offered_bps == pytest.approx(3e6)
        np.testing.assert_allclose(scaled.demand_bps,
                                   matrix.demand_bps * 3.0)

    def test_pairs_row_major_order(self):
        demand = np.zeros((3, 3))
        demand[2, 0] = 1.0
        demand[0, 2] = 1.0
        demand[1, 0] = 1.0
        matrix = TrafficMatrix(demand)
        assert matrix.pairs() == [(0, 2), (1, 0), (2, 0)]

    def test_permutation_matches_canonical_pairs(self):
        """The paper's §5.4 matrix is reproduced exactly: same pairs as
        random_permutation_pairs, one 10 Mbit/s entry each."""
        matrix = TrafficMatrix.permutation(num_stations=100)
        canonical = sorted(random_permutation_pairs(100))
        assert matrix.pairs() == canonical
        for src, dst in canonical:
            assert matrix.rate_bps(src, dst) == 10_000_000.0
        assert matrix.total_offered_bps == pytest.approx(1e9)

    def test_permutation_other_seed(self):
        default = TrafficMatrix.permutation(20)
        other = TrafficMatrix.permutation(20, seed=7)
        assert sorted(other.pairs()) == sorted(
            random_permutation_pairs(20, seed=7))
        assert default != other

    def test_json_round_trip_bit_identical(self, tmp_path):
        matrix = TrafficMatrix.gravity(count=12, total_offered_bps=7e7)
        path = tmp_path / "matrix.json"
        matrix.to_json(str(path))
        clone = TrafficMatrix.from_json(str(path))
        assert clone == matrix
        assert clone.kind == "gravity"
        with pytest.raises(ValueError, match="demand_bps"):
            TrafficMatrix.from_dict({"kind": "gravity"})

    def test_as_fluid_flows(self):
        matrix = TrafficMatrix.permutation(10)
        capped = matrix.as_fluid_flows()
        assert len(capped) == 10
        assert all(f.demand_bps == 10_000_000.0 for f in capped)
        elastic = matrix.as_fluid_flows(elastic=True)
        assert all(np.isinf(f.demand_bps) for f in elastic)
        assert ([(f.src_gid, f.dst_gid) for f in elastic]
                == matrix.pairs())


class TestFlowRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowRequest(-1.0, 0, 1, 100)
        with pytest.raises(ValueError):
            FlowRequest(float("nan"), 0, 1, 100)
        with pytest.raises(ValueError):
            FlowRequest(0.0, 1, 1, 100)
        with pytest.raises(ValueError):
            FlowRequest(0.0, -1, 1, 100)
        with pytest.raises(ValueError):
            FlowRequest(0.0, 0, 1, 0)

    def test_round_trip(self):
        request = FlowRequest(1.5, 2, 3, 4096)
        assert FlowRequest.from_dict(request.as_dict()) == request


class TestWorkloadSchedule:
    def _schedule(self):
        return WorkloadSchedule([
            FlowRequest(2.0, 0, 1, 1000),
            FlowRequest(0.5, 2, 3, 2000),
            FlowRequest(0.5, 0, 3, 3000),
        ], seed=9)

    def test_sorted_by_content(self):
        schedule = self._schedule()
        starts = [r.t_start_s for r in schedule]
        assert starts == sorted(starts)
        # Ties broken by (src, dst): (0, 3) before (2, 3).
        assert schedule.requests[0].src_gid == 0
        # Construction order never matters.
        reversed_order = WorkloadSchedule(
            list(self._schedule())[::-1], seed=9)
        assert reversed_order == schedule

    def test_accounting(self):
        schedule = self._schedule()
        assert schedule.num_flows == 3
        assert not schedule.is_empty
        assert schedule.end_s == 2.0
        assert schedule.offered_bits == 6000 * 8.0
        assert schedule.offered_load_bps(4.0) == pytest.approx(12_000.0)
        with pytest.raises(ValueError):
            schedule.offered_load_bps(0.0)
        assert schedule.pairs() == [(0, 1), (0, 3), (2, 3)]

    def test_merged(self):
        schedule = self._schedule()
        extra = WorkloadSchedule([FlowRequest(1.0, 4, 5, 10)], seed=1)
        union = schedule.merged(extra)
        assert union.num_flows == 4
        assert union.seed == 9
        assert union == WorkloadSchedule(
            list(schedule) + list(extra), seed=9)

    def test_as_fluid_flows_index_aligned(self):
        schedule = self._schedule()
        flows = schedule.as_fluid_flows()
        for flow, request in zip(flows, schedule):
            assert (flow.src_gid, flow.dst_gid) \
                == (request.src_gid, request.dst_gid)
            assert flow.start_s == request.t_start_s
            assert flow.size_bytes == float(request.size_bytes)

    def test_json_round_trip(self, tmp_path):
        schedule = self._schedule()
        path = tmp_path / "workload.json"
        schedule.to_json(str(path))
        clone = WorkloadSchedule.from_json(str(path))
        assert clone == schedule
        with pytest.raises(ValueError, match="flows"):
            WorkloadSchedule.from_dict({"seed": 3})

    def test_schedule_pickles(self):
        import pickle
        schedule = self._schedule()
        assert pickle.loads(pickle.dumps(schedule)) == schedule


class TestFlowArrivalProcess:
    def _matrix(self):
        return TrafficMatrix.gravity(count=10, total_offered_bps=5e7)

    def test_same_seed_bit_identical(self):
        matrix = self._matrix()
        first = FlowArrivalProcess(matrix, seed=3).generate(30.0)
        second = FlowArrivalProcess(matrix, seed=3).generate(30.0)
        assert first == second

    def test_generate_request_list_pinned(self):
        """``generate`` and ``FlowArrivalStream`` share one draw loop;
        this digest was recorded while each had its own."""
        import hashlib
        schedule = FlowArrivalProcess(
            TrafficMatrix.gravity(count=6, total_offered_bps=2e7),
            mean_size_bytes=100_000.0, seed=7).generate(10.0)
        rows = [(r.t_start_s.hex(), r.src_gid, r.dst_gid, r.size_bytes)
                for r in schedule]
        assert (len(rows), schedule.seed) == (268, 7)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "48b365f9b3f0b25d2a3682ff2eeb34e9"
            "091b419641942afe2ce69c188ecf8c44")

    def test_different_seed_differs(self):
        matrix = self._matrix()
        a = FlowArrivalProcess(matrix, seed=3).generate(30.0)
        b = FlowArrivalProcess(matrix, seed=4).generate(30.0)
        assert a != b

    def test_pair_streams_merge(self):
        """Pairs never couple: schedules from disjoint sub-matrices merge
        into exactly the union matrix's schedule."""
        demand = np.zeros((4, 4))
        demand[0, 1] = 2e6
        demand[2, 3] = 3e6
        union = FlowArrivalProcess(TrafficMatrix(demand),
                                   seed=5).generate(60.0)
        left = np.zeros((4, 4))
        left[0, 1] = 2e6
        right = np.zeros((4, 4))
        right[2, 3] = 3e6
        parts = FlowArrivalProcess(TrafficMatrix(left),
                                   seed=5).generate(60.0).merged(
            FlowArrivalProcess(TrafficMatrix(right), seed=5).generate(60.0))
        assert parts == union

    def test_offered_load_tracks_matrix(self):
        matrix = TrafficMatrix.gravity(count=20, total_offered_bps=1e8)
        schedule = FlowArrivalProcess(matrix, seed=0,
                                      mean_size_bytes=1e5).generate(120.0)
        offered = schedule.offered_load_bps(120.0)
        assert 0.7 * 1e8 < offered < 1.3 * 1e8

    def test_arrival_rate(self):
        matrix = TrafficMatrix.permutation(10)  # 10 Mbit/s per pair
        process = FlowArrivalProcess(matrix, mean_size_bytes=1e6)
        src, dst = matrix.pairs()[0]
        assert process.pair_arrival_rate(src, dst) \
            == pytest.approx(10e6 / 8e6)
        assert process.pair_arrival_rate(0, 0) == 0.0

    @pytest.mark.parametrize("dist", ["exponential", "lognormal", "pareto"])
    def test_size_distributions_hit_mean(self, dist):
        matrix = TrafficMatrix.permutation(4, rate_bps=1e9)
        process = FlowArrivalProcess(matrix, mean_size_bytes=1e6,
                                     size_distribution=dist, seed=11)
        schedule = process.generate(40.0)
        sizes = np.array([r.size_bytes for r in schedule], dtype=float)
        assert len(sizes) > 100
        assert (sizes >= process.min_size_bytes).all()
        # Heavy tails converge slowly; a loose band is the point here.
        assert 0.5e6 < sizes.mean() < 2.0e6

    def test_validation(self):
        matrix = self._matrix()
        with pytest.raises(ValueError):
            FlowArrivalProcess(matrix, mean_size_bytes=0.0)
        with pytest.raises(ValueError, match="unknown size distribution"):
            FlowArrivalProcess(matrix, size_distribution="uniform")
        with pytest.raises(ValueError):
            FlowArrivalProcess(matrix, lognormal_sigma=0.0)
        with pytest.raises(ValueError):
            FlowArrivalProcess(matrix, pareto_alpha=1.0)
        with pytest.raises(ValueError):
            FlowArrivalProcess(matrix, min_size_bytes=0)
        with pytest.raises(ValueError):
            FlowArrivalProcess(matrix).generate(0.0)


class TestFiniteFluidFlows:
    """Dynamic flows in the fluid engines: arrivals, completions, FCTs."""

    RATE = 1_000_000.0  # 1 Mbit/s links keep FCTs visible

    def _workload(self):
        return WorkloadSchedule([
            FlowRequest(0.0, 0, 3, 25_000),   # 0.2 Mbit
            FlowRequest(1.0, 1, 4, 50_000),   # 0.4 Mbit
            FlowRequest(2.5, 2, 5, 12_500),   # 0.1 Mbit
        ], seed=0)

    def test_maxmin_completes_finite_flows(self, small_network):
        sim = FluidSimulation(small_network,
                              self._workload().as_fluid_flows(),
                              link_capacity_bps=self.RATE)
        result = sim.run(duration_s=10.0, step_s=2.0)
        assert result.flow_fct_s is not None
        assert np.isfinite(result.flow_fct_s).all()
        np.testing.assert_allclose(result.flow_delivered_bits,
                                   result.flow_offered_bits)
        summary = result.perf_summary()
        assert summary["flows_completed"] == 3.0
        assert summary["flows_finite"] == 3.0
        assert summary["delivered_load_bps"] \
            == pytest.approx(summary["offered_load_bps"])
        assert result.perf["allocations_solved"] >= len(result.times_s)

    def test_maxmin_fct_matches_hand_computation(self, small_network):
        """A lone finite flow on idle links completes in size/rate."""
        flows = [FluidFlow(0, 3, start_s=0.5, size_bytes=25_000.0)]
        result = FluidSimulation(small_network, flows,
                                 link_capacity_bps=self.RATE).run(
            duration_s=6.0, step_s=1.0)
        assert result.flow_fct_s[0] == pytest.approx(0.2, abs=1e-6)

    def test_aimd_completes_finite_flows(self, small_network):
        sim = AimdFluidSimulation(small_network,
                                  self._workload().as_fluid_flows(),
                                  link_capacity_bps=self.RATE)
        result = sim.run(duration_s=30.0, step_s=1.0)
        assert result.flow_fct_s is not None
        assert np.isfinite(result.flow_fct_s).all()
        # AIMD delivers every byte, at substep resolution.
        np.testing.assert_allclose(result.flow_delivered_bits,
                                   result.flow_offered_bits, rtol=1e-6)
        assert result.perf_summary()["flows_completed"] == 3.0

    def test_static_run_reports_no_fct(self, small_network):
        result = FluidSimulation(small_network, [FluidFlow(0, 3)],
                                 link_capacity_bps=self.RATE).run(
            duration_s=4.0, step_s=2.0)
        assert result.flow_fct_s is None
        assert "flows_completed" not in result.perf_summary()
        assert "allocations_solved" not in result.perf

    def test_active_flow_series_recorded(self, small_network):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        FluidSimulation(small_network,
                        self._workload().as_fluid_flows(),
                        link_capacity_bps=self.RATE,
                        metrics=registry).run(duration_s=8.0, step_s=2.0)
        series = registry.series_logs["traffic.active_flows"]
        assert len(series.values) == 4

    def test_fluid_report_carries_fct_extras(self, small_network):
        from repro.obs.report import fluid_run_report
        result = FluidSimulation(small_network,
                                 self._workload().as_fluid_flows(),
                                 link_capacity_bps=self.RATE).run(
            duration_s=10.0, step_s=2.0)
        report = fluid_run_report(result)
        fct = report.as_dict()["fct"]
        assert fct["flows_finite"] == 3
        assert fct["flows_completed"] == 3
        assert fct["delivered_bits"] == pytest.approx(fct["offered_bits"])
        assert fct["histogram"]["count"] == 3
        assert sum(fct["histogram"]["buckets"].values()) == 3
        assert "fct:" in report.describe()

    def test_summary_and_report_pinned(self, small_network):
        """Key order and values of a seeded dynamic run, captured at
        ``b0e353e`` — before the FCT statistics moved into
        :func:`repro.obs.report.fct_summary`."""
        import random

        from repro.obs.report import WALL_CLOCK_KEYS, fluid_run_report
        rng = random.Random(5)
        requests = []
        for _ in range(16):
            src, dst = rng.sample(range(6), 2)
            requests.append(FlowRequest(
                t_start_s=rng.uniform(0.0, 7.0), src_gid=src, dst_gid=dst,
                size_bytes=rng.randint(10_000, 200_000)))
        result = FluidSimulation(
            small_network,
            WorkloadSchedule(requests, seed=5).as_fluid_flows(),
            link_capacity_bps=self.RATE).run(duration_s=10.0, step_s=2.0)
        summary = {
            "snapshots": 5.0,
            "flows": 16.0,
            "flows_ever_connected": 3.0,
            "mean_rate_bps": 25000.0,
            "link_capacity_bps": 1000000.0,
            "peak_utilization": 1.0,
            "flows_completed": 16.0,
            "fct_mean_s": 0.8821039661234759,
            "fct_p50_s": 0.7558760000000002,
            "fct_p99_s": 2.1021313289878067,
            "fct_max_s": 2.107551728987807,
            "flows_finite": 16.0,
            "offered_load_bps": 1185030.4,
            "delivered_load_bps": 1185030.4,
            "snapshots_computed": 5.0,
            "allocations_solved": 37.0,
        }
        measured = {key: value
                    for key, value in result.perf_summary().items()
                    if key not in WALL_CLOCK_KEYS}
        assert list(measured.items()) == list(summary.items())
        report = fluid_run_report(result).as_dict(deterministic=True)
        assert list(report) == ["report_version", "kind", "duration_s",
                                "summary", "provenance", "fct"]
        assert list(report["summary"].items()) == list(summary.items())
        assert report["fct"] == {
            "histogram": {
                "count": 16,
                "sum": 14.113663457975616,
                "mean": 0.882103966123476,
                "min": 0.10749600000000026,
                "max": 2.107551728987807,
                "exact_quantiles": True,
                "p50": 0.633248,
                "p99": 2.107551728987807,
                "buckets": {"0.03": 0, "0.1": 0, "0.3": 3, "1.0": 7,
                            "3.0": 6, "10.0": 0, "30.0": 0, "100.0": 0,
                            "300.0": 0, "+inf": 0},
            },
            "flows_finite": 16,
            "flows_completed": 16,
            "offered_bits": 11850304.0,
            "delivered_bits": 11850304.0,
        }

    def test_workload_through_hypatia_facade(self, small_network):
        """build_fluid_simulation(workload=...) appends the schedule's
        finite flows after the long-running ones."""
        from repro.core.hypatia import Hypatia
        hypatia = Hypatia.__new__(Hypatia)
        hypatia.network = small_network
        sim = Hypatia.build_fluid_simulation(
            hypatia, flows=[FluidFlow(0, 3)], mode="maxmin",
            link_capacity_bps=self.RATE, workload=self._workload())
        assert len(sim.flows) == 4
        assert sim.flows[0].size_bytes is None
        assert all(f.size_bytes is not None for f in sim.flows[1:])


class TestWorkloadSpawner:
    def _workload(self):
        return WorkloadSchedule([
            FlowRequest(0.0, 0, 3, 30_000),
            FlowRequest(0.5, 1, 4, 15_000),
        ], seed=0)

    def test_spawner_runs_and_completes(self, small_network):
        from repro.obs import MetricsRegistry
        from repro.simulation.simulator import LinkConfig, PacketSimulator
        registry = MetricsRegistry()
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=1e6, gsl_rate_bps=1e6))
        spawner = WorkloadSpawner(self._workload(),
                                  metrics=registry).install(sim)
        sim.run(20.0)
        assert spawner.started == 2
        assert spawner.completed == 2
        assert spawner.active == 0
        assert all(fct > 0.0 for fct in spawner.fcts_s)
        assert registry.counters["traffic.flows_completed"].value == 2.0
        assert registry.counters["traffic.offered_bytes"].value == 45_000.0
        assert len(registry.series_logs["traffic.active_flows"].values) == 4
        extras = packet_fct_section([spawner], registry)
        assert extras["flows_finite"] == extras["flows_completed"] == 2
        assert extras["offered_bits"] == 45_000.0 * 8.0
        assert extras["delivered_bits"] == 45_000.0 * 8.0
        assert extras["histogram"]["count"] == 2
        assert list(extras["by_controller"]["newreno"]) == [
            "flows_completed", "fct_mean_s", "fct_p50_s", "fct_p90_s",
            "fct_p99_s"]

    def test_install_twice_rejected(self, small_network):
        from repro.simulation.simulator import PacketSimulator
        sim = PacketSimulator(small_network)
        spawner = WorkloadSpawner(self._workload()).install(sim)
        with pytest.raises(RuntimeError):
            spawner.install(sim)

    def test_tiny_packet_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpawner(self._workload(), packet_bytes=10)

    def test_fluid_and_packet_fcts_agree(self, small_network):
        """The acceptance check: on a small scenario, fluid FCTs land in
        the same range as packet-level TCP FCTs."""
        from repro.simulation.simulator import LinkConfig, PacketSimulator
        workload = WorkloadSchedule([
            FlowRequest(0.0, 0, 3, 200_000),
            FlowRequest(0.0, 1, 4, 200_000),
        ], seed=0)
        rate = 2_000_000.0
        fluid = FluidSimulation(small_network, workload.as_fluid_flows(),
                                link_capacity_bps=rate).run(
            duration_s=20.0, step_s=1.0)
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=rate,
                                         gsl_rate_bps=rate))
        spawner = WorkloadSpawner(workload).install(sim)
        sim.run(20.0)
        assert spawner.completed == 2
        for fluid_fct, packet_fct in zip(fluid.flow_fct_s,
                                         sorted(spawner.fcts_s)):
            # Fluid is the ideal envelope: TCP takes longer (slow start,
            # headers) but within a small factor on an idle network.
            assert fluid_fct <= packet_fct * 1.05
            assert packet_fct < 6.0 * fluid_fct


class TestWorkloadSweep:
    def _workload(self):
        matrix = np.zeros((6, 6))
        matrix[0, 3] = matrix[1, 4] = matrix[2, 5] = 1e6
        return FlowArrivalProcess(TrafficMatrix(matrix),
                                  mean_size_bytes=1e5,
                                  seed=2).generate(10.0)

    def test_spec_carries_workload(self, small_network):
        import pickle
        from repro.sweep import NetworkSpec
        workload = self._workload()
        spec = NetworkSpec.from_network(small_network)
        assert spec.workload is None
        loaded = spec.with_workload(workload)
        assert loaded.workload == workload
        assert spec.workload is None  # original untouched
        clone = pickle.loads(pickle.dumps(loaded))
        assert clone == loaded
        assert clone.workload == workload
        # build() ignores the workload: same topology either way.
        assert np.array_equal(loaded.build().isl_pairs,
                              small_network.isl_pairs)

    def test_workload_sweep_parallel_matches_serial(self, small_network):
        from repro.sweep import NetworkSpec, sweep_timelines
        from repro.topology.dynamic_state import snapshot_times
        spec = NetworkSpec.from_network(small_network).with_workload(
            self._workload())
        pairs = spec.workload.pairs()
        assert pairs == [(0, 3), (1, 4), (2, 5)]
        times = snapshot_times(10.0, 1.0)
        serial = sweep_timelines(spec, pairs, times, workers=1)
        parallel = sweep_timelines(spec, pairs, times, workers=4)
        for pair in pairs:
            assert np.array_equal(parallel[pair].distances_m,
                                  serial[pair].distances_m,
                                  equal_nan=True)
            assert parallel[pair].paths == serial[pair].paths


class TestTrafficCli:
    def test_traffic_command_writes_workload(self, capsys, tmp_path):
        from repro.cli import main
        out = tmp_path / "workload.json"
        matrix_out = tmp_path / "matrix.json"
        code = main(["traffic", "-o", str(out), "--cities", "10",
                     "--total-mbps", "50", "--duration", "20",
                     "--seed", "7", "--matrix-out", str(matrix_out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "flow arrivals" in captured
        schedule = WorkloadSchedule.from_json(str(out))
        assert schedule.seed == 7
        assert not schedule.is_empty
        matrix = TrafficMatrix.from_json(str(matrix_out))
        assert matrix.kind == "gravity"
        assert matrix.num_stations == 10

    def test_traffic_command_is_deterministic(self, tmp_path):
        from repro.cli import main
        args = ["traffic", "--cities", "8", "--total-mbps", "20",
                "--duration", "15", "--seed", "3"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["-o", str(first)]) == 0
        assert main(args + ["-o", str(second)]) == 0
        assert first.read_text() == second.read_text()

    def test_traffic_permutation_model(self, capsys, tmp_path):
        from repro.cli import main
        out = tmp_path / "perm.json"
        code = main(["traffic", "-o", str(out), "--model", "permutation",
                     "--cities", "12", "--pair-mbps", "5",
                     "--duration", "10"])
        assert code == 0
        schedule = WorkloadSchedule.from_json(str(out))
        assert set(schedule.pairs()) <= set(
            random_permutation_pairs(12))

    def test_report_with_workload_fluid(self, capsys, tmp_path):
        from repro.cli import main
        workload = tmp_path / "w.json"
        WorkloadSchedule([FlowRequest(0.0, 0, 40, 50_000)],
                         seed=0).to_json(str(workload))
        out = tmp_path / "report.json"
        code = main(["report", "K1", "--engine", "maxmin",
                     "--workload", str(workload), "--duration", "4",
                     "--step", "2", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "fluid.maxmin"
        assert payload["fct"]["flows_finite"] == 1
        assert "fct:" in capsys.readouterr().out

    def test_packet_fct_section_same_from_report_and_service(self,
                                                             tmp_path):
        """One packet-side ``fct`` builder: ``repro report``, a live
        service with the workload baked into its spec, and one that got
        the same flows in two attachments publish the same section."""
        from repro import Hypatia
        from repro.cli import main
        from repro.service import LiveSimulationService
        from repro.sweep import NetworkSpec
        # The second half starts after the first has completed, so the
        # per-controller lists keep completion order in every variant.
        halves = [
            [FlowRequest(0.0, 0, 40, 30_000), FlowRequest(0.2, 7, 3, 45_000),
             FlowRequest(0.4, 12, 55, 20_000)],
            [FlowRequest(2.5, 40, 0, 25_000), FlowRequest(2.6, 3, 12, 60_000),
             FlowRequest(2.8, 55, 7, 35_000)],
        ]
        workload = WorkloadSchedule(halves[0] + halves[1], seed=0)
        path = tmp_path / "w.json"
        workload.to_json(str(path))
        out = tmp_path / "report.json"
        assert main(["report", "K1", "--engine", "packet", "--workload",
                     str(path), "--duration", "5", "--step", "1",
                     "-o", str(out)]) == 0
        from_cli = json.loads(out.read_text())["fct"]
        assert from_cli["flows_completed"] == from_cli["flows_finite"] == 6
        assert set(from_cli["by_controller"]) == {"newreno"}

        spec = NetworkSpec.from_network(
            Hypatia.from_shell_name("K1", num_cities=100).network)
        baked = LiveSimulationService(spec.with_workload(workload),
                                      engine="packet", horizon_s=5.0)
        split = LiveSimulationService(spec, engine="packet", horizon_s=5.0)
        for half in halves:
            split.attach_workload(WorkloadSchedule(half, seed=0))
        for service in (baked, split):
            service.run_to_horizon()
            section = service.report().as_dict()["fct"]
            assert json.loads(json.dumps(section)) == from_cli

    def test_report_without_pair_or_workload_fails(self, capsys):
        from repro.cli import main
        code = main(["report", "K1", "--engine", "maxmin"])
        assert code != 0

    def test_fct_buckets_exported(self):
        assert FCT_BUCKETS[0] == 0.03
        assert list(FCT_BUCKETS) == sorted(FCT_BUCKETS)
