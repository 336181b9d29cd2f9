"""Tests for the packet simulator's forwarding plane and controller."""

import numpy as np
import pytest

from repro.simulation.packet import Packet
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.routing.engine import RoutingEngine
from repro.simulation.forwarding import ForwardingController
from repro.simulation.events import EventScheduler


class TestLinkConfig:
    def test_defaults_match_paper(self):
        config = LinkConfig()
        assert config.isl_rate_bps == 10_000_000.0
        assert config.isl_queue_packets == 100
        assert config.gsl_queue_packets == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkConfig(isl_rate_bps=0.0)
        with pytest.raises(ValueError):
            LinkConfig(gsl_queue_packets=-1)


class TestForwardingController:
    def test_requires_registration(self, small_network):
        sched = EventScheduler()
        controller = ForwardingController(small_network, sched)
        controller.start()
        with pytest.raises(KeyError):
            controller.next_hop_from_satellite(0, 3)

    def test_next_hops_available_after_start(self, small_network):
        sched = EventScheduler()
        controller = ForwardingController(small_network, sched)
        controller.register_destination(3)
        controller.start()
        hop = controller.next_hop_from_ground(0, 3)
        assert hop is not None
        assert hop < small_network.num_satellites

    def test_matches_routing_engine(self, small_network):
        sched = EventScheduler()
        controller = ForwardingController(small_network, sched)
        controller.register_destination(2)
        controller.start()
        engine = RoutingEngine(small_network)
        snap = small_network.snapshot(0.0)
        routing = engine.route_to_many(snap, [2]).routing_for(2)
        for sat in range(0, small_network.num_satellites, 11):
            expected = int(routing.next_hop[sat])
            actual = controller.next_hop_from_satellite(sat, 2)
            if expected == -1:
                assert actual is None
            else:
                assert actual == expected

    def test_periodic_update_scheduled(self, small_network):
        sched = EventScheduler()
        controller = ForwardingController(small_network, sched,
                                          update_interval_s=0.5)
        controller.register_destination(1)
        controller.start()
        assert controller.snapshot.time_s == 0.0
        sched.run(until_s=1.6)
        assert controller.snapshot.time_s == pytest.approx(1.5)

    def test_register_after_start(self, small_network):
        sched = EventScheduler()
        controller = ForwardingController(small_network, sched)
        controller.register_destination(0)
        controller.start()
        controller.register_destination(4)
        assert controller.next_hop_from_ground(1, 4) is not None

    def test_double_start_rejected(self, small_network):
        sched = EventScheduler()
        controller = ForwardingController(small_network, sched)
        with pytest.raises(RuntimeError):
            controller.start()
            controller.start()

    def test_bad_interval_rejected(self, small_network):
        with pytest.raises(ValueError):
            ForwardingController(small_network, EventScheduler(),
                                 update_interval_s=0.0)

    def test_update_times_stay_on_absolute_grid(self, small_network):
        """Regression: relative rescheduling accumulated float drift off
        the paper's 0.1 s grid; updates must land exactly on
        ``k * interval`` for 1000 updates, matching ``snapshot_times``."""
        from repro.obs.trace import FWD_UPDATE, RingBufferTracer
        from repro.topology.dynamic_state import snapshot_times
        tracer = RingBufferTracer()
        sched = EventScheduler()
        controller = ForwardingController(small_network, sched,
                                          update_interval_s=0.1,
                                          tracer=tracer)
        controller.start()
        sched.run(until_s=99.95)
        times = [event.time_s for event in tracer.events_of(FWD_UPDATE)]
        assert len(times) == 1000
        # Exact equality, not approx: both sides are k * 0.1 in float64.
        assert times == [k * 0.1 for k in range(1000)]
        assert np.array_equal(np.asarray(times), snapshot_times(100.0, 0.1))


class TestPacketDelivery:
    def test_single_packet_end_to_end(self, small_network):
        sim = PacketSimulator(small_network)
        received = []
        src_node = sim.gs_node_id(0)
        dst_node = sim.gs_node_id(3)
        sim.register_handler(dst_node, 42, lambda p: received.append(
            (sim.now, p)))
        sim.scheduler.schedule_at(0.0, lambda: sim.send(
            Packet(42, src_node, dst_node, size_bytes=1500)))
        sim.run(2.0)
        assert len(received) == 1
        arrival, packet = received[0]
        # Arrival = serialization per hop + propagation; must be close to
        # the computed one-way delay and certainly under 100 ms here.
        assert 0.0 < arrival < 0.1
        assert packet.hops >= 2  # at least up and down

    def test_delivery_latency_matches_computed_path(self, small_network):
        engine = RoutingEngine(small_network)
        snap = small_network.snapshot(0.0)
        one_way = engine.pair_distance_m(snap, 0, 3) / 299_792_458.0
        # Use a very fast line rate so serialization is negligible.
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=1e12,
                                         gsl_rate_bps=1e12))
        received = []
        sim.register_handler(sim.gs_node_id(3), 1,
                             lambda p: received.append(sim.now))
        sim.scheduler.schedule_at(0.0, lambda: sim.send(
            Packet(1, sim.gs_node_id(0), sim.gs_node_id(3),
                   size_bytes=1500)))
        sim.run(1.0)
        assert received[0] == pytest.approx(one_way, rel=1e-3)

    def test_unregistered_flow_silently_dropped(self, small_network):
        sim = PacketSimulator(small_network)
        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)
        # Send to gid 3 but with an unknown flow id: forwarded, no handler.
        sim.scheduler.schedule_at(0.0, lambda: sim.send(
            Packet(999, sim.gs_node_id(0), sim.gs_node_id(3),
                   size_bytes=100)))
        sim.run(1.0)
        assert sim.stats.packets_delivered == 0

    def test_duplicate_handler_rejected(self, small_network):
        sim = PacketSimulator(small_network)
        sim.register_handler(sim.gs_node_id(0), 1, lambda p: None)
        with pytest.raises(ValueError):
            sim.register_handler(sim.gs_node_id(0), 1, lambda p: None)

    def test_queue_drop_accounting(self, small_network):
        # A tiny queue and a burst of packets forces drops at the source
        # GSL device.
        sim = PacketSimulator(small_network,
                              LinkConfig(gsl_rate_bps=100_000.0,
                                         gsl_queue_packets=2))
        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)

        def burst():
            for _ in range(10):
                sim.send(Packet(1, sim.gs_node_id(0), sim.gs_node_id(3),
                                size_bytes=1500))

        sim.scheduler.schedule_at(0.0, burst)
        sim.run(1.0)
        assert sim.stats.packets_dropped_queue == 7  # 1 in tx + 2 queued

    def test_device_accessors(self, small_network):
        """Devices are built when first needed: none before traffic,
        ``gsl_device`` builds its node's, a forwarded packet builds the
        ISL directions it crosses, in link order."""
        sim = PacketSimulator(small_network)
        assert list(sim.iter_devices()) == []
        station = sim.gs_node_id(0)
        assert sim.gsl_device(station).node_id == station
        assert sim.gsl_device(station) is sim.gsl_device(station)
        assert [device.name for device in sim.iter_devices()] == \
            [f"gsl-{station}"]

        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)
        sim.scheduler.schedule_at(0.0, lambda: sim.send(
            Packet(1, station, sim.gs_node_id(3), size_bytes=100)))
        sim.run(1.0)
        assert sim.stats.packets_delivered == 1
        order = {}
        for a, b in small_network.isl_pairs.tolist():
            order[f"isl-{a}-{b}"], order[f"isl-{b}-{a}"] = len(order), \
                len(order) + 1
        isls = [device for device in sim.iter_devices()
                if device.name.startswith("isl-")]
        assert isls, "the packet crossed no ISL"
        assert [order[device.name] for device in isls] == \
            sorted(order[device.name] for device in isls)
        for device in isls:
            a, b = (int(x) for x in device.name.split("-")[1:])
            assert device.node_id == a
            assert device.stats.packets_sent == 1
        gsls = [device.node_id for device in sim.iter_devices()
                if device.name.startswith("gsl-")]
        assert gsls == sorted(gsls) and station in gsls

        for node in (-1, small_network.num_nodes):
            with pytest.raises(KeyError):
                sim.gsl_device(node)

    def test_a_non_isl_next_hop_is_refused(self, small_network):
        """A routing bug that names a satellite no ISL reaches raises,
        as it did when every device existed: no phantom link is built."""
        sim = PacketSimulator(small_network)
        neighbours = {}
        for a, b in small_network.isl_pairs.tolist():
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)

        def stranger(sat_id, dst_gid):
            return next(other for other in range(sim.network.num_satellites)
                        if other != sat_id
                        and other not in neighbours[sat_id])

        sim.forwarding.next_hop_from_satellite = stranger
        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)
        sim.scheduler.schedule_at(0.0, lambda: sim.send(
            Packet(1, sim.gs_node_id(0), sim.gs_node_id(3),
                   size_bytes=100)))
        with pytest.raises(KeyError):
            sim.run(1.0)
        assert not any(device.name.startswith("isl-")
                       for device in sim.iter_devices())

    def test_gid_of_node(self, small_network):
        sim = PacketSimulator(small_network)
        assert sim.gid_of_node(sim.gs_node_id(4)) == 4
        with pytest.raises(ValueError):
            sim.gid_of_node(0)


class TestDropAccounting:
    def test_no_route_drop_when_disconnected(self, small_constellation,
                                             small_stations):
        """Packets addressed across a bent-pipe gap are dropped and
        counted (paper: disconnections surface as loss to transport)."""
        from repro.topology.network import LeoNetwork
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=15.0, isl_builder="none")
        sim = PacketSimulator(network)
        sim.register_handler(sim.gs_node_id(2), 1, lambda p: None)
        # Quito (0) -> Singapore (2): no ISLs, no common satellite.
        sim.scheduler.schedule_at(0.0, lambda: sim.send(
            Packet(1, sim.gs_node_id(0), sim.gs_node_id(2),
                   size_bytes=100)))
        sim.run(1.0)
        assert sim.stats.packets_dropped_no_route == 1
        assert sim.stats.packets_delivered == 0

    def test_no_handler_drop_counted(self, small_network):
        """Regression: a packet reaching its destination with no handler
        used to vanish from every counter."""
        sim = PacketSimulator(small_network)
        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)
        sim.scheduler.schedule_at(0.0, lambda: sim.send(
            Packet(999, sim.gs_node_id(0), sim.gs_node_id(3),
                   size_bytes=100)))
        sim.run(1.0)
        assert sim.stats.packets_delivered == 0
        assert sim.stats.packets_dropped_no_handler == 1
        assert sim.stats.packets_dropped == 1

    def test_ttl_guard(self, small_network):
        """A packet whose hop budget is exhausted is dropped, not looped
        forever (protects against transient forwarding inconsistency)."""
        from repro.simulation.simulator import MAX_HOPS
        sim = PacketSimulator(small_network)
        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)
        packet = Packet(1, sim.gs_node_id(0), sim.gs_node_id(3),
                        size_bytes=100)
        packet.hops = MAX_HOPS  # pre-exhausted
        sim.scheduler.schedule_at(0.0, lambda: sim.send(packet))
        sim.run(1.0)
        assert sim.stats.packets_dropped_ttl == 1


class TestPerfAccounting:
    def test_perf_summary_populated_by_run(self, small_network):
        sim = PacketSimulator(small_network)
        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)
        sim.scheduler.schedule_at(0.0, lambda: sim.send(
            Packet(1, sim.gs_node_id(0), sim.gs_node_id(3),
                   size_bytes=100)))
        sim.run(1.0)
        summary = sim.stats.perf_summary()
        assert summary["events_processed"] == \
            sim.scheduler.events_processed > 0
        # ~10 forwarding updates over 1 s at 0.1 s granularity (float
        # accumulation may squeeze in one more just below the horizon),
        # one registered destination, one batched dijkstra each.
        assert summary["trees_computed"] in (10, 11)
        assert summary["dijkstra_calls"] == summary["trees_computed"]
        # Work counts only: wall-clock time is the span profiler's.
        assert not any("wall" in key or key.endswith("_s")
                       for key in summary)

    def test_routing_counters_shared_with_engine(self, small_network):
        sim = PacketSimulator(small_network)
        sim.register_handler(sim.gs_node_id(2), 7, lambda p: None)
        sim.run(0.05)
        assert sim.stats.routing.trees_computed >= 1
        assert sim.stats.routing.csr_rebuilds_avoided >= 0


class TestForwardingMemo:
    """The per-refresh ``(node, dst) -> (device, next hop)`` memo must be
    invisible: every packet follows the state installed *now*."""

    FAST = LinkConfig(isl_rate_bps=1e9, gsl_rate_bps=1e9)

    def _send_at(self, sim, time_s, src_gid=0, dst_gid=3, flow_id=1):
        sim.scheduler.schedule_at(time_s, lambda: sim.send(Packet(
            flow_id, sim.gs_node_id(src_gid), sim.gs_node_id(dst_gid),
            size_bytes=1500)))

    def test_route_change_takes_effect_on_first_packet(
            self, small_constellation, small_stations, small_network):
        from repro.faults import FaultEvent, FaultSchedule
        from repro.topology.network import LeoNetwork
        # The first ISL of the 0 -> 3 path at t=0 is cut from t=0.25 on,
        # so the refresh at t=0.3 must move the flow off it.
        snapshot = small_network.snapshot(0.0)
        routing = RoutingEngine(small_network).route_to_many(
            snapshot, [3]).routing_for(3)
        ingress, _ = routing.source_ingress(snapshot.gsl_edges[0])
        after = int(routing.next_hop[ingress])
        assert after < small_network.num_satellites
        network = LeoNetwork(
            small_constellation, small_stations, min_elevation_deg=10.0,
            faults=FaultSchedule(
                [FaultEvent.isl_cut(ingress, after, 0.25, 10.0)]))
        sim = PacketSimulator(network, self.FAST)
        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)
        for time_s in (0.21, 0.22):  # a memo miss, then a hit
            self._send_at(sim, time_s)
        sim.run(0.29)
        (cut_device,) = [device for device in sim.iter_devices()
                         if device.name == f"isl-{ingress}-{after}"]
        assert cut_device.stats.packets_sent == 2
        assert sim.forwarding.hop_memo[(ingress, sim.gs_node_id(3))] == (
            cut_device, after)
        self._send_at(sim, 0.31)
        sim.run(0.6)
        assert sim.stats.packets_delivered == 3
        assert cut_device.stats.packets_sent == 2

    def test_no_route_is_asked_again_after_the_next_refresh(
            self, small_constellation, small_stations):
        from repro.faults import FaultEvent, FaultSchedule
        from repro.topology.network import LeoNetwork
        network = LeoNetwork(
            small_constellation, small_stations, min_elevation_deg=10.0,
            faults=FaultSchedule([FaultEvent.gsl_cut(0, 0.0, 0.25)]))
        sim = PacketSimulator(network, self.FAST)
        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)
        for time_s in (0.05, 0.06, 0.35):
            self._send_at(sim, time_s)
        sim.run(0.2)
        assert sim.stats.packets_dropped_no_route == 2
        assert (sim.gs_node_id(0), sim.gs_node_id(3)) \
            not in sim.forwarding.hop_memo
        sim.run(0.6)
        assert sim.stats.packets_dropped_no_route == 2
        assert sim.stats.packets_delivered == 1

    def test_register_destination_mid_run_clears_the_memo(
            self, small_network):
        sim = PacketSimulator(small_network, self.FAST,
                              forwarding_interval_s=1.0)
        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)
        self._send_at(sim, 0.01)
        sim.run(0.3)
        assert sim.forwarding.hop_memo
        sim.register_handler(sim.gs_node_id(4), 2, lambda p: None)
        assert not sim.forwarding.hop_memo
        self._send_at(sim, 0.3, dst_gid=4, flow_id=2)
        sim.run(0.6)
        assert sim.stats.packets_delivered == 2
        assert (sim.gs_node_id(0), sim.gs_node_id(4)) \
            in sim.forwarding.hop_memo

    def test_unregistered_destination_still_raises(self, small_network):
        sim = PacketSimulator(small_network, self.FAST)
        sim.register_handler(sim.gs_node_id(3), 1, lambda p: None)
        self._send_at(sim, 0.01)
        sim.run(0.05)
        with pytest.raises(KeyError, match="never registered"):
            sim.send(Packet(1, sim.gs_node_id(0), sim.gs_node_id(5),
                            size_bytes=100))
