"""Tests for the deterministic fault-injection subsystem (repro.faults).

Covers the schedule semantics, per-layer wiring (topology snapshots,
packet devices, fluid capacities, sweep spec, viz, CLI), the weather
unification, and the determinism contract: identical seeds produce
byte-identical reports, serially and across sweep workers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.faults.injector import LinkFaultInjector
from repro.ground.weather import RainEvent, WeatherModel
from repro.topology.network import LeoNetwork

pytestmark = pytest.mark.faults


# ----------------------------------------------------------------------
# Schedule semantics
# ----------------------------------------------------------------------

class TestFaultEvent:
    def test_active_interval_end_exclusive(self):
        event = FaultEvent.satellite_outage(3, 5.0, 10.0)
        assert not event.active_at(4.999)
        assert event.active_at(5.0)
        assert event.active_at(9.999)
        assert not event.active_at(10.0)

    def test_isl_pair_normalized_by_constructor(self):
        event = FaultEvent.isl_cut(7, 2, 0.0, 1.0)
        assert event.isl == (2, 7)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            FaultEvent.satellite_outage(0, 5.0, 5.0)

    def test_rejects_missing_target(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.SATELLITE_OUTAGE, 0.0, 1.0)

    def test_rejects_multiple_targets(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.PACKET_LOSS, 0.0, 1.0, isl=(0, 1), gid=2,
                       rate=0.5)

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            FaultEvent.packet_loss(0.0, 1.0, rate=0.0, gid=0)
        with pytest.raises(ValueError):
            FaultEvent.packet_loss(0.0, 1.0, rate=1.5, gid=0)

    def test_dict_round_trip(self):
        events = [
            FaultEvent.satellite_outage(3, 5.0, 10.0),
            FaultEvent.isl_cut(1, 2, 0.0, 4.0),
            FaultEvent.gsl_cut(2, 1.0, 4.0),
            FaultEvent.gsl_attenuation(0, 2.0, 9.0, 25.0),
            FaultEvent.packet_loss(2.0, 8.0, 0.25, isl=(3, 4)),
            FaultEvent.packet_corruption(1.0, 2.0, 0.01, gid=5),
        ]
        for event in events:
            clone = FaultEvent.from_dict(
                json.loads(json.dumps(event.as_dict())))
            assert clone == event


class TestFaultSchedule:
    def _schedule(self):
        return FaultSchedule([
            FaultEvent.satellite_outage(3, 5.0, 10.0),
            FaultEvent.isl_cut(1, 2, 0.0, 4.0),
            FaultEvent.gsl_cut(2, 1.0, 4.0),
            FaultEvent.gsl_attenuation(0, 2.0, 9.0, 25.0),
            FaultEvent.packet_loss(2.0, 8.0, 0.25, isl=(3, 4)),
            FaultEvent.packet_loss(2.0, 8.0, 0.5, gid=0),
        ], seed=7)

    def test_time_queries(self):
        schedule = self._schedule()
        assert schedule.failed_satellites_at(6.0) == {3}
        assert schedule.failed_satellites_at(10.0) == frozenset()
        assert schedule.cut_isls_at(1.0) == {(1, 2)}
        assert schedule.cut_isls_at(4.0) == frozenset()
        assert schedule.cut_gids_at(2.0) == {2}
        assert schedule.elevation_penalty_deg(0, 3.0) == 25.0
        assert schedule.elevation_penalty_deg(0, 9.5) == 0.0

    def test_events_stored_sorted_regardless_of_input_order(self):
        schedule = self._schedule()
        shuffled = FaultSchedule(list(reversed(schedule.events)), seed=7)
        assert shuffled.events == schedule.events
        assert shuffled == schedule

    def test_json_round_trip(self, tmp_path):
        schedule = self._schedule()
        path = str(tmp_path / "faults.json")
        schedule.to_json(path)
        assert FaultSchedule.from_json(path) == schedule

    def test_from_dict_rejects_payload_without_events(self):
        with pytest.raises(ValueError):
            FaultSchedule.from_dict({"bad": True})

    def test_merged_keeps_seed_and_unions_events(self):
        a = FaultSchedule([FaultEvent.gsl_cut(0, 0.0, 1.0)], seed=3)
        b = FaultSchedule([FaultEvent.gsl_cut(1, 0.0, 1.0)], seed=9)
        merged = a.merged(b)
        assert merged.seed == 3
        assert len(merged) == 2

    def test_combined_rate_is_product_form(self):
        schedule = self._schedule()
        events = (FaultEvent.packet_loss(0.0, 1.0, 0.5, gid=0),
                  FaultEvent.packet_loss(0.0, 1.0, 0.2, gid=0))
        assert schedule.combined_rate(events, 0.5) == pytest.approx(
            1.0 - 0.5 * 0.8)

    def test_capacity_factor(self):
        schedule = self._schedule()
        num_sats = 10

        def factor(device, time_s):
            return schedule.capacity_factors([device], num_sats, time_s)[0]

        # Cut ISL and outaged satellite's links: zero capacity.
        assert factor((1, 2), 1.0) == 0.0
        assert factor((2, 1), 1.0) == 0.0
        assert factor((3, 4), 6.0) == 0.0
        assert factor(("gsl", 3), 6.0) == 0.0
        # Cut station, lossy station uplink, lossy ISL.
        assert factor(("gsl", 12), 2.0) == 0.0
        assert factor(("gsl", 10), 4.0) == pytest.approx(0.5)
        assert factor((3, 4), 2.0) == pytest.approx(0.75)
        # Healthy link, and everything after recovery.
        assert factor((5, 6), 1.0) == 1.0
        assert factor((1, 2), 11.0) == 1.0

    def test_synthetic_is_deterministic_and_covers_kinds(self):
        kwargs = dict(num_satellites=200, num_stations=50,
                      duration_s=120.0, seed=11,
                      satellite_outage_probability=0.2,
                      gsl_cut_probability=0.3, loss_probability=0.3)
        a = FaultSchedule.synthetic(**kwargs)
        b = FaultSchedule.synthetic(**kwargs)
        assert a == b
        kinds = {event.kind for event in a}
        assert FaultKind.SATELLITE_OUTAGE in kinds
        assert FaultKind.GSL_CUT in kinds
        assert FaultKind.PACKET_LOSS in kinds
        assert FaultSchedule.synthetic(
            num_satellites=200, num_stations=50, duration_s=120.0,
            seed=12, satellite_outage_probability=0.2,
            gsl_cut_probability=0.3, loss_probability=0.3) != a

    def test_synthetic_validates_probabilities(self):
        with pytest.raises(ValueError):
            FaultSchedule.synthetic(10, 5, 60.0,
                                    satellite_outage_probability=1.5)


class TestWeatherUnification:
    def test_from_weather_matches_penalty_sums(self):
        weather = WeatherModel.synthetic(8, 120.0, seed=4,
                                         storm_probability=0.9)
        schedule = FaultSchedule.from_weather(weather)
        assert schedule.num_events == weather.num_events
        for gid in range(8):
            for t in np.linspace(0.0, 121.0, 50):
                assert schedule.elevation_penalty_deg(gid, t) == \
                    pytest.approx(weather.penalty_deg(gid, t))

    def test_weather_network_snapshots_equal_fault_network_snapshots(
            self, small_constellation, small_stations):
        weather = WeatherModel([
            RainEvent(gid=0, start_s=2.0, end_s=8.0,
                      elevation_penalty_deg=40.0),
            RainEvent(gid=3, start_s=0.0, end_s=5.0,
                      elevation_penalty_deg=90.0),
        ])
        via_weather = LeoNetwork(small_constellation, small_stations,
                                 min_elevation_deg=10.0, weather=weather)
        via_faults = LeoNetwork(small_constellation, small_stations,
                                min_elevation_deg=10.0,
                                faults=FaultSchedule.from_weather(weather))
        for t in (0.0, 3.0, 6.0, 9.0):
            a, b = via_weather.snapshot(t), via_faults.snapshot(t)
            for gid in range(len(small_stations)):
                assert np.array_equal(a.gsl_edges[gid].satellite_ids,
                                      b.gsl_edges[gid].satellite_ids)


# ----------------------------------------------------------------------
# The per-device Bernoulli injector
# ----------------------------------------------------------------------

class TestLinkFaultInjector:
    def _events(self, rate=0.5):
        return [FaultEvent.packet_loss(10.0, 20.0, rate, isl=(3, 4))]

    def test_no_drops_outside_window(self):
        injector = LinkFaultInjector("isl-3-4", self._events(rate=1.0))
        assert all(injector.drop_reason(t) is None
                   for t in (0.0, 9.99, 20.0, 100.0))

    def test_rate_one_always_drops_inside_window(self):
        injector = LinkFaultInjector("isl-3-4", self._events(rate=1.0))
        assert all(injector.drop_reason(15.0) == "loss" for _ in range(20))

    def test_same_seed_same_stream(self):
        a = LinkFaultInjector("isl-3-4", self._events(), seed=5)
        b = LinkFaultInjector("isl-3-4", self._events(), seed=5)
        assert [a.drop_reason(15.0) for _ in range(200)] == \
            [b.drop_reason(15.0) for _ in range(200)]

    def test_streams_differ_across_devices_and_seeds(self):
        a = [LinkFaultInjector("isl-3-4", self._events(),
                               seed=5).drop_reason(15.0)
             for _ in range(1)]
        outcomes_by_name = [
            [LinkFaultInjector(name, self._events(), seed=5).drop_reason(15.0)
             for _ in range(64)]
            for name in ("isl-3-4", "isl-4-3")
        ]
        assert outcomes_by_name[0] != outcomes_by_name[1]
        del a

    def test_stream_not_consumed_while_inactive(self):
        """Draws only happen inside fault windows, so adding pre-window
        traffic cannot perturb in-window outcomes."""
        a = LinkFaultInjector("isl-3-4", self._events(), seed=5)
        b = LinkFaultInjector("isl-3-4", self._events(), seed=5)
        for _ in range(100):
            a.drop_reason(1.0)  # outside [10, 20): no RNG consumption
        assert [a.drop_reason(15.0) for _ in range(50)] == \
            [b.drop_reason(15.0) for _ in range(50)]

    def test_corruption_reported_distinctly(self):
        injector = LinkFaultInjector("gsl-100", [
            FaultEvent.packet_corruption(0.0, 10.0, 1.0, gid=0)])
        assert injector.drop_reason(5.0) == "corruption"

    def test_non_stochastic_events_filtered(self):
        injector = LinkFaultInjector("isl-0-1", [
            FaultEvent.isl_cut(0, 1, 0.0, 10.0)])
        assert not injector.has_events


# ----------------------------------------------------------------------
# Topology integration: snapshots exclude faulted elements
# ----------------------------------------------------------------------

class TestSnapshotFaultMasking:
    def test_outage_removes_isls_and_gsls_then_recovers(
            self, small_constellation, small_stations):
        faults = FaultSchedule([FaultEvent.satellite_outage(5, 3.0, 7.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        baseline = LeoNetwork(small_constellation, small_stations,
                              min_elevation_deg=10.0)
        during = network.snapshot(5.0)
        assert all(5 not in (a, b) for a, b in during.isl_pairs)
        assert 5 not in {int(s) for e in during.gsl_edges.values()
                         for s in e.satellite_ids}
        for t in (0.0, 7.0, 9.0):  # before, at recovery, after
            assert np.array_equal(network.snapshot(t).isl_pairs,
                                  baseline.snapshot(t).isl_pairs)

    def test_isl_cut_removes_one_link(self, small_constellation,
                                      small_stations):
        baseline = LeoNetwork(small_constellation, small_stations,
                              min_elevation_deg=10.0)
        pair = tuple(int(x) for x in baseline.isl_pairs[0])
        faults = FaultSchedule([FaultEvent.isl_cut(*pair, 0.0, 2.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        cut = {tuple(p) for p in network.snapshot(1.0).isl_pairs}
        full = {tuple(p) for p in baseline.snapshot(1.0).isl_pairs}
        assert full - cut == {pair}
        assert {tuple(p) for p in network.snapshot(2.0).isl_pairs} == full

    def test_gsl_cut_disconnects_station(self, small_constellation,
                                         small_stations):
        faults = FaultSchedule([FaultEvent.gsl_cut(2, 1.0, 4.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        assert network.snapshot(0.0).gsl_edges[2].is_connected
        assert not network.snapshot(2.0).gsl_edges[2].is_connected
        assert network.snapshot(4.0).gsl_edges[2].is_connected

    def test_attenuation_shrinks_visible_set(self, small_constellation,
                                             small_stations):
        faults = FaultSchedule([
            FaultEvent.gsl_attenuation(0, 1.0, 4.0, 35.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        before = len(network.snapshot(0.9).gsl_edges[0].satellite_ids)
        during = len(network.snapshot(1.1).gsl_edges[0].satellite_ids)
        assert during < before

    def test_out_of_range_targets_rejected(self, small_constellation,
                                           small_stations):
        """Constructor and ``set_faults`` are one path: same message for
        a bad satellite, gid or ISL endpoint (the ISL case used to be
        accepted silently and never matched a link), nothing installed."""
        good = FaultSchedule([FaultEvent.gsl_cut(2, 1.0, 4.0)])
        live = LeoNetwork(small_constellation, small_stations,
                          min_elevation_deg=10.0, faults=good)
        num_sats = small_constellation.num_satellites
        for event, message in [
            (FaultEvent.satellite_outage(999, 0.0, 1.0),
             "fault satellite 999 out of range"),
            (FaultEvent.gsl_cut(99, 0.0, 1.0), "fault gid 99 out of range"),
            (FaultEvent.isl_cut(0, num_sats + 5, 0.0, 10.0),
             f"fault isl (0, {num_sats + 5}) has an endpoint out of range"),
            (FaultEvent.packet_loss(0.0, 1.0, 0.5, isl=(3, num_sats)),
             f"fault isl (3, {num_sats}) has an endpoint out of range"),
        ]:
            bad = FaultSchedule([event])
            with pytest.raises(ValueError) as at_construction:
                LeoNetwork(small_constellation, small_stations,
                           min_elevation_deg=10.0, faults=bad)
            with pytest.raises(ValueError) as on_live_network:
                live.set_faults(bad)
            assert str(at_construction.value) == message
            assert str(on_live_network.value) == message
            assert live.faults is good and live.fault_view is good
        live.set_faults(FaultSchedule([
            FaultEvent.isl_cut(0, num_sats - 1, 0.0, 10.0)]))


class TestMidRunRerouteAndRecovery:
    def test_outage_reroutes_then_recovery_restores_path(
            self, small_constellation, small_stations):
        """The acceptance scenario: a mid-run satellite outage of an
        on-path satellite visibly reroutes the pair at the next
        forwarding tick, and recovery restores the original path."""
        from repro.sweep import sweep_timelines
        from repro.topology.dynamic_state import snapshot_times
        times = snapshot_times(10.0, 1.0)
        baseline = LeoNetwork(small_constellation, small_stations,
                              min_elevation_deg=10.0)
        pair = (0, 3)
        base_tl = sweep_timelines(baseline, [pair], times)[pair]
        # Fail a satellite that is on the pair's path at t in [3, 7).
        victims = [n for n in base_tl.paths[3]
                   if n < baseline.num_satellites]
        victim = victims[len(victims) // 2]
        faults = FaultSchedule([
            FaultEvent.satellite_outage(victim, 3.0, 7.0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        fault_tl = sweep_timelines(network, [pair], times)[pair]
        # Unaffected before the outage...
        assert fault_tl.paths[:3] == base_tl.paths[:3]
        # ...rerouted (victim-free) while it lasts...
        for t_index in range(3, 7):
            path = fault_tl.paths[t_index]
            if path is not None:
                assert victim not in path
            assert path != base_tl.paths[t_index] or \
                victim not in (base_tl.paths[t_index] or ())
        assert fault_tl.paths[3] != base_tl.paths[3]
        # ...with a visible RTT/hop change at the outage tick...
        changed = (fault_tl.hop_counts()[3] != base_tl.hop_counts()[3]
                   or fault_tl.rtts_s[3] != base_tl.rtts_s[3])
        assert changed
        # ...and recovery restores the original (baseline) path.
        assert fault_tl.paths[7:] == base_tl.paths[7:]
        assert np.allclose(fault_tl.distances_m[7:],
                           base_tl.distances_m[7:])


# ----------------------------------------------------------------------
# Packet simulator integration: fault drops, partition, metrics
# ----------------------------------------------------------------------

def _lossy_network(constellation, stations, rate=0.5, seed=9):
    faults = FaultSchedule([
        FaultEvent.packet_loss(1.0, 4.0, rate, gid=0)], seed=seed)
    return LeoNetwork(constellation, stations, min_elevation_deg=10.0,
                      faults=faults)


class TestPacketFaultDrops:
    def test_drops_counted_under_fault_reason(self, small_constellation,
                                              small_stations):
        from repro.obs.trace import PKT_DROP, RingBufferTracer
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        network = _lossy_network(small_constellation, small_stations)
        tracer = RingBufferTracer()
        sim = PacketSimulator(network, tracer=tracer)
        PingSession(0, 3, interval_s=0.01).install(sim)
        sim.run(6.0)
        stats = sim.stats
        assert stats.packets_dropped_fault > 0
        assert stats.packets_dropped >= stats.packets_dropped_fault
        # Queue drops and fault drops are partitioned, not conflated.
        drops = [e for e in tracer.events_of(PKT_DROP)
                 if e.reason == "fault"]
        assert len(drops) == stats.packets_dropped_fault
        # All fault drops happened inside the schedule window, on the
        # faulted device.
        assert all(1.0 <= e.time_s < 4.0 for e in drops)
        assert all(e.link == f"gsl-{network.gs_node_id(0)}" for e in drops)

    def test_report_partitions_drop_reasons(self, small_constellation,
                                            small_stations):
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        network = _lossy_network(small_constellation, small_stations)
        sim = PacketSimulator(network)
        PingSession(0, 3, interval_s=0.01).install(sim)
        sim.run(6.0)
        summary = sim.report().as_dict()["summary"]
        assert summary["packets_dropped_fault"] > 0
        partition = (summary["packets_dropped_no_route"]
                     + summary["packets_dropped_queue"]
                     + summary["packets_dropped_ttl"]
                     + summary["packets_dropped_no_handler"]
                     + summary["packets_dropped_fault"])
        assert summary["packets_dropped"] == partition

    def test_no_faults_no_behavior_change(self, small_constellation,
                                          small_stations):
        """An empty schedule is inert: identical results to no schedule."""
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        results = []
        for faults in (None, FaultSchedule()):
            network = LeoNetwork(small_constellation, small_stations,
                                 min_elevation_deg=10.0, faults=faults)
            sim = PacketSimulator(network)
            PingSession(0, 3, interval_s=0.01).install(sim)
            sim.run(3.0)
            results.append(json.dumps(
                sim.report().as_dict(deterministic=True), sort_keys=True))
        assert results[0] == results[1]

    def test_probe_records_faults_series(self, small_constellation,
                                         small_stations):
        from repro.obs import MetricsRegistry
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        network = _lossy_network(small_constellation, small_stations)
        sim = PacketSimulator(network)
        registry = MetricsRegistry()
        sim.attach_probe(registry=registry, interval_s=1.0)
        PingSession(0, 3, interval_s=0.01).install(sim)
        sim.run(6.0)
        active = registry.series_logs["faults.active_events"]
        dropped = registry.series_logs["faults.packets_dropped"]
        assert max(active.values) == 1.0  # window [1, 4) spans samples
        assert min(active.values) == 0.0
        assert dropped.values[-1] == float(sim.stats.packets_dropped_fault)


# ----------------------------------------------------------------------
# Determinism regression (the tentpole contract)
# ----------------------------------------------------------------------

class TestDeterminism:
    def _run_report_json(self, constellation, stations):
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        network = _lossy_network(constellation, stations, seed=21)
        sim = PacketSimulator(network)
        PingSession(0, 3, interval_s=0.01).install(sim)
        PingSession(1, 4, interval_s=0.02).install(sim)
        sim.run(6.0)
        return json.dumps(sim.report().as_dict(deterministic=True),
                          sort_keys=True)

    def test_identical_seed_byte_identical_reports(
            self, small_constellation, small_stations):
        first = self._run_report_json(small_constellation, small_stations)
        second = self._run_report_json(small_constellation, small_stations)
        assert first == second

    def test_deterministic_dict_strips_wall_clock_keys(
            self, small_constellation, small_stations):
        from repro.obs.report import WALL_CLOCK_KEYS
        from repro.simulation.simulator import PacketSimulator
        from repro.transport.ping import PingSession
        network = _lossy_network(small_constellation, small_stations)
        sim = PacketSimulator(network)
        PingSession(0, 3, interval_s=0.01).install(sim)
        sim.run(2.0)
        report = sim.report()
        full = report.as_dict()["summary"]
        deterministic = report.as_dict(deterministic=True)["summary"]
        assert WALL_CLOCK_KEYS & set(full)
        assert not WALL_CLOCK_KEYS & set(deterministic)
        # Everything else is untouched.
        for key, value in deterministic.items():
            assert full[key] == value

    def test_sweep_parallel_equals_serial_under_faults(
            self, small_constellation, small_stations):
        from repro.sweep import sweep_timelines
        from repro.topology.dynamic_state import snapshot_times
        faults = FaultSchedule([
            FaultEvent.satellite_outage(5, 3.0, 7.0),
            FaultEvent.gsl_cut(2, 2.0, 5.0),
            FaultEvent.isl_cut(0, 1, 0.0, 9.0),
        ], seed=13)
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        pairs = [(0, 3), (1, 4), (2, 5)]
        times = snapshot_times(10.0, 0.5)
        serial = sweep_timelines(network, pairs, times, workers=1)
        parallel = sweep_timelines(network, pairs, times, workers=4)
        for pair in pairs:
            assert np.array_equal(serial[pair].distances_m,
                                  parallel[pair].distances_m)
            assert serial[pair].paths == parallel[pair].paths


# ----------------------------------------------------------------------
# Fluid engines: faulted links are zero-capacity
# ----------------------------------------------------------------------

class TestFluidFaults:
    def _network(self, constellation, stations):
        faults = FaultSchedule([FaultEvent.gsl_cut(0, 3.0, 7.0)])
        return LeoNetwork(constellation, stations,
                          min_elevation_deg=10.0, faults=faults)

    def test_maxmin_zeroes_cut_window(self, small_constellation,
                                      small_stations):
        from repro.fluid.engine import FluidFlow, FluidSimulation
        network = self._network(small_constellation, small_stations)
        result = FluidSimulation(network, [FluidFlow(0, 3)]).run(
            10.0, step_s=1.0)
        rates = result.flow_rates_bps[:, 0]
        assert (rates[3:7] == 0.0).all()
        assert rates[0] > 0.0 and rates[8] > 0.0

    def test_aimd_zeroes_cut_window(self, small_constellation,
                                    small_stations):
        from repro.fluid.aimd import AimdFluidSimulation
        from repro.fluid.engine import FluidFlow
        network = self._network(small_constellation, small_stations)
        result = AimdFluidSimulation(network, [FluidFlow(0, 3)]).run(
            10.0, step_s=1.0)
        rates = result.flow_rates_bps[:, 0]
        assert (rates[3:7] == 0.0).all()
        assert rates[0] > 0.0 and rates[8] > 0.0

    def test_maxmin_scales_lossy_link_capacity(self, small_constellation,
                                               small_stations):
        from repro.fluid.engine import FluidFlow, FluidSimulation
        faults = FaultSchedule([
            FaultEvent.packet_loss(0.0, 100.0, 0.5, gid=0)])
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        clean = LeoNetwork(small_constellation, small_stations,
                           min_elevation_deg=10.0)
        lossy_rate = FluidSimulation(network, [FluidFlow(0, 3)]).run(
            2.0, step_s=1.0).flow_rates_bps[0, 0]
        clean_rate = FluidSimulation(clean, [FluidFlow(0, 3)]).run(
            2.0, step_s=1.0).flow_rates_bps[0, 0]
        assert lossy_rate == pytest.approx(clean_rate * 0.5)


# ----------------------------------------------------------------------
# Viz: the utilization map marks faulted links
# ----------------------------------------------------------------------

class TestVizFaultMarking:
    def test_faulted_links_flagged_and_included(self, small_constellation,
                                                small_stations):
        from repro.viz.utilization_map import (hotspot_summary,
                                               utilization_map)
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0)
        cut_pair = tuple(int(x) for x in network.isl_pairs[0])
        outaged_sat = int(network.isl_pairs[-1][0])
        faults = FaultSchedule([
            FaultEvent.isl_cut(*cut_pair, 0.0, 10.0),
            FaultEvent.satellite_outage(outaged_sat, 0.0, 10.0),
        ])
        loads = {cut_pair: 0.0, (2, 3): 0.9}
        segments = utilization_map(small_constellation, loads, 5.0,
                                   faults=faults,
                                   isl_pairs=network.isl_pairs)
        by_pair = {(s.sat_a, s.sat_b): s for s in segments}
        # The cut link appears despite zero load, flagged.
        assert by_pair[cut_pair].faulted
        # Every ISL of the outaged satellite is flagged too.
        outage_links = [s for s in segments
                        if outaged_sat in (s.sat_a, s.sat_b)]
        assert outage_links and all(s.faulted for s in outage_links)
        # Loaded healthy links are not flagged.
        assert not by_pair[(2, 3)].faulted
        summary = hotspot_summary(segments)
        assert summary["num_faulted_isls"] == len(
            [s for s in segments if s.faulted])
        assert summary["num_used_isls"] == 1  # only (2, 3) carries load

    def test_no_faults_keeps_previous_shape(self, small_constellation):
        from repro.viz.utilization_map import utilization_map
        segments = utilization_map(small_constellation,
                                   {(2, 3): 0.5, (3, 2): 0.25}, 0.0)
        assert len(segments) == 1
        assert not segments[0].faulted
        assert segments[0].utilization == 0.5


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestFaultsCli:
    def test_faults_generator_writes_loadable_schedule(self, tmp_path,
                                                       capsys):
        from repro.cli import main
        path = str(tmp_path / "faults.json")
        code = main(["faults", "K1", "-o", path, "--seed", "7",
                     "--duration", "120", "--sat-outage-prob", "0.1"])
        assert code == 0
        schedule = FaultSchedule.from_json(path)
        assert schedule.seed == 7
        assert schedule.num_events > 0
        out = capsys.readouterr().out
        assert "fault events" in out

    def test_report_accepts_faults_flag(self, tmp_path, capsys):
        from repro.cli import main
        spec = str(tmp_path / "faults.json")
        FaultSchedule([FaultEvent.gsl_cut(0, 1.0, 3.0)],
                      seed=2).to_json(spec)
        out_path = str(tmp_path / "report.json")
        code = main(["report", "K1", "Manila", "Dalian",
                     "--engine", "maxmin", "--duration", "2",
                     "--faults", spec, "-o", out_path])
        assert code == 0
        payload = json.loads(open(out_path).read())
        assert payload["kind"] == "fluid.maxmin"
        assert "loaded fault schedule: 1 events" in capsys.readouterr().out
