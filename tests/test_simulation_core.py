"""Tests for the discrete-event core: scheduler, packets, devices,
positions."""

import math

import numpy as np
import pytest

from repro.simulation.devices import DeviceStats, LinkDevice
from repro.simulation.events import EventScheduler
from repro.simulation.packet import DEFAULT_HEADER_BYTES, Packet
from repro.simulation.positions import PositionService


class _Sink:
    """Picklable event target (module level, so pickle can name it)."""

    def __init__(self):
        self.seen = []

    def tick(self):
        self.seen.append("tick")

    def take(self, a, b):
        self.seen.append((a, b))


class TestEventScheduler:
    def test_runs_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(2.0, lambda: fired.append("b"))
        sched.schedule(1.0, lambda: fired.append("a"))
        sched.schedule(3.0, lambda: fired.append("c"))
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_for_same_time(self):
        sched = EventScheduler()
        fired = []
        for i in range(5):
            sched.schedule(1.0, lambda i=i: fired.append(i))
        sched.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(1.5, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [1.5]
        assert sched.now == 1.5

    def test_until_excludes_boundary(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        sched.schedule(2.0, lambda: fired.append(2))
        sched.run(until_s=2.0)
        assert fired == [1]
        assert sched.now == 2.0
        sched.run(until_s=3.0)
        assert fired == [1, 2]

    def test_events_scheduled_during_run(self):
        sched = EventScheduler()
        fired = []

        def first():
            fired.append("first")
            sched.schedule(1.0, lambda: fired.append("second"))

        sched.schedule(1.0, first)
        sched.run()
        assert fired == ["first", "second"]

    def test_event_exactly_at_until_is_deferred(self):
        """An event scheduled exactly at ``until_s`` must not run in that
        window, but the clock still advances to ``until_s``."""
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(sched.now))
        sched.run(until_s=1.0)
        assert fired == []
        assert sched.now == 1.0
        assert sched.events_processed == 0
        # The deferred event runs at its original time in the next window.
        sched.run(until_s=2.0)
        assert fired == [1.0]

    def test_run_until_with_empty_queue_advances_clock(self):
        sched = EventScheduler()
        sched.run(until_s=5.0)
        assert sched.now == 5.0
        assert sched.events_processed == 0

    def test_repeated_windows_partition_time(self):
        sched = EventScheduler()
        fired = []
        for t in (0.5, 1.0, 1.5, 2.0):
            sched.schedule(t, lambda t=t: fired.append(t))
        sched.run(until_s=1.0)
        assert fired == [0.5]
        sched.run(until_s=2.0)
        assert fired == [0.5, 1.0, 1.5]
        sched.run()
        assert fired == [0.5, 1.0, 1.5, 2.0]

    def test_negative_delay_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.schedule_at(0.5, lambda: None)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9])
    def test_non_finite_or_past_times_rejected(self, bad):
        """A NaN time used to be accepted, *fire*, and leave the clock
        at NaN (every later past-check then passes)."""
        sched = EventScheduler()
        fired = []
        with pytest.raises(ValueError):
            sched.schedule(bad, lambda: fired.append("timer"))
        with pytest.raises(ValueError):
            sched.schedule_at(bad, lambda: fired.append("absolute"))
        with pytest.raises(ValueError):
            sched.schedule_call(bad, lambda a, b: fired.append("record"),
                                1, 2)
        assert len(sched) == 0
        sched.run(until_s=2.0)
        assert fired == [] and sched.now == 2.0

    def test_negative_zero_delay_allowed(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(-0.0, lambda: fired.append("timer"))
        sched.schedule_at(-0.0, lambda: fired.append("absolute"))
        sched.schedule_call(-0.0, lambda a, b: fired.append((a, b)), 1, 2)
        sched.run()
        assert fired == ["timer", "absolute", (1, 2)]
        assert sched.now == 0.0

    def test_schedule_call_passes_record_fields(self):
        """``fn(a, b)`` with the two record fields — falsy ones included —
        interleaved FIFO with plain timers at the same instant."""
        sched = EventScheduler()
        fired = []
        sched.schedule_call(1.0, lambda a, b: fired.append((a, b)), 0, None)
        sched.schedule(1.0, lambda: fired.append("timer"))
        sched.schedule_call(1.0, lambda a, b: fired.append((a, b)), "p", 7)
        sched.run()
        assert fired == [(0, None), "timer", ("p", 7)]
        assert sched.events_processed == 3

    def test_pending_records_pickle(self):
        """The queue is part of a service checkpoint: bound methods plus
        plain fields must round-trip and fire in the same order."""
        import pickle

        sched = EventScheduler()
        sink = _Sink()
        sched.schedule_call(2.0, sink.take, "late", 2)
        sched.schedule(1.0, sink.tick)
        sched.schedule_call(1.0, sink.take, "early", 1)
        restored, restored_sink = pickle.loads(pickle.dumps((sched, sink)))
        restored.run()
        assert restored_sink.seen == ["tick", ("early", 1), ("late", 2)]
        assert sink.seen == []

    def test_events_processed_is_live_inside_an_event(self):
        sched = EventScheduler()
        seen = []
        for _ in range(3):
            sched.schedule(1.0, lambda: seen.append(sched.events_processed))
        sched.run()
        assert seen == [1, 2, 3]

    def test_event_count(self):
        sched = EventScheduler()
        for _ in range(7):
            sched.schedule(1.0, lambda: None)
        sched.run()
        assert sched.events_processed == 7

    def test_clear(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        sched.clear()
        sched.run()
        assert fired == []


class TestPacket:
    def test_payload_defaults_to_size_minus_headers(self):
        packet = Packet(1, 0, 1, size_bytes=1500)
        assert packet.payload_bytes == 1500 - DEFAULT_HEADER_BYTES

    def test_explicit_payload(self):
        packet = Packet(1, 0, 1, size_bytes=64, payload_bytes=0)
        assert packet.payload_bytes == 0

    def test_unique_ids(self):
        a = Packet(1, 0, 1, size_bytes=100)
        b = Packet(1, 0, 1, size_bytes=100)
        assert a.packet_id != b.packet_id

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(1, 0, 1, size_bytes=0)

    def test_repr_contains_kind(self):
        packet = Packet(1, 0, 1, size_bytes=100, kind="ack")
        assert "ack" in repr(packet)

    def test_sack_default_empty(self):
        packet = Packet(1, 0, 1, size_bytes=40, kind="ack")
        assert packet.sack == ()


class TestPositionService:
    def test_ground_station_static(self, small_network):
        service = PositionService(small_network)
        gs_node = small_network.gs_node_id(0)
        p0 = service.position_m(gs_node, 0.0)
        p1 = service.position_m(gs_node, 100.0)
        assert p0 == p1

    def test_satellite_matches_constellation(self, small_network):
        service = PositionService(small_network, quantum_s=0.0)
        batch = small_network.constellation.positions_ecef_m(50.0)
        for sat in [0, 31, 99]:
            np.testing.assert_allclose(
                service.position_m(sat, 50.0), batch[sat], atol=1e-6)

    def test_quantization_error_bounded(self, small_network):
        coarse = PositionService(small_network, quantum_s=0.01)
        exact = PositionService(small_network, quantum_s=0.0)
        # Within one quantum, position differs by at most v * quantum.
        p_coarse = np.array(coarse.position_m(5, 0.0099))
        p_exact = np.array(exact.position_m(5, 0.0099))
        assert np.linalg.norm(p_coarse - p_exact) < 80.0  # < 7.6km/s * 10ms

    def test_distance_symmetric(self, small_network):
        service = PositionService(small_network)
        d_ab = service.distance_m(0, 5, 10.0)
        d_ba = service.distance_m(5, 0, 10.0)
        assert d_ab == d_ba

    def test_delay_is_distance_over_c(self, small_network):
        service = PositionService(small_network)
        d = service.distance_m(0, 1, 0.0)
        assert service.delay_s(0, 1, 0.0) == pytest.approx(d / 299_792_458.0)

    def test_negative_quantum_rejected(self, small_network):
        with pytest.raises(ValueError):
            PositionService(small_network, quantum_s=-1.0)


class _SeedPositionOracle:
    """The pre-PR-16 ``PositionService`` arithmetic, kept verbatim as the
    reference: numpy scalars indexed per call, all six cos/sin evaluated
    in place, the Earth-rotation angle recomputed per endpoint."""

    def __init__(self, network, quantum_s):
        from repro.geo.constants import EARTH_ROTATION_RATE_RAD_PER_S
        constellation = network.constellation
        self._quantum_s = quantum_s
        self._num_sats = constellation.num_satellites
        self._epoch_offset_s = constellation.epoch_offset_s
        self._radius = constellation._radius_m
        self._raan = constellation._raan_rad
        self._incl = constellation._inclination_rad
        self._anom = constellation._anomaly_rad
        self._motion = constellation._mean_motion
        self._earth_rate = EARTH_ROTATION_RATE_RAD_PER_S
        self._gs_positions = {
            network.gs_node_id(gs.gid): tuple(gs.ecef_m)
            for gs in network.ground_stations}

    def position_m(self, node_id, time_s):
        if node_id >= self._num_sats:
            return self._gs_positions[node_id]
        if self._quantum_s > 0.0:
            time_s = int(time_s / self._quantum_s) * self._quantum_s
        time_s = time_s + self._epoch_offset_s
        sat_id = node_id
        u = self._anom[sat_id] + self._motion[sat_id] * time_s
        r = self._radius[sat_id]
        cos_u, sin_u = math.cos(u), math.sin(u)
        cos_o, sin_o = (math.cos(self._raan[sat_id]),
                        math.sin(self._raan[sat_id]))
        cos_i, sin_i = (math.cos(self._incl[sat_id]),
                        math.sin(self._incl[sat_id]))
        x_eci = r * (cos_u * cos_o - sin_u * cos_i * sin_o)
        y_eci = r * (cos_u * sin_o + sin_u * cos_i * cos_o)
        z = r * sin_u * sin_i
        theta = self._earth_rate * time_s
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        return (x_eci * cos_t + y_eci * sin_t,
                -x_eci * sin_t + y_eci * cos_t,
                z)

    def distance_m(self, node_a, node_b, time_s):
        ax, ay, az = self.position_m(node_a, time_s)
        bx, by, bz = self.position_m(node_b, time_s)
        return math.sqrt((ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)

    def delay_s(self, node_a, node_b, time_s):
        return self.distance_m(node_a, node_b, time_s) / 299_792_458.0


class TestPositionExactness:
    """The float-table geometry must equal the seed arithmetic bit for
    bit (``==``, not ≈): every packet's arrival time comes out of it."""

    @pytest.mark.parametrize("quantum_s", [0.0, 0.001, 0.1])
    def test_bit_identical_to_seed_arithmetic(self, small_shell,
                                              small_stations, quantum_s):
        import random

        from repro.constellations.builder import Constellation
        from repro.topology.network import LeoNetwork

        network = LeoNetwork(
            Constellation([small_shell], epoch_offset_s=1234.567),
            small_stations, min_elevation_deg=10.0)
        service = PositionService(network, quantum_s=quantum_s)
        oracle = _SeedPositionOracle(network, quantum_s)
        num_sats = network.num_satellites
        period_s = 2.0 * math.pi / float(
            network.constellation._mean_motion[0])
        rng = random.Random(16)
        for draw in range(500):
            sat_a, sat_b = rng.sample(range(num_sats), 2)
            gs = num_sats + rng.randrange(network.num_ground_stations)
            node_a, node_b = [(sat_a, sat_b), (sat_a, gs),
                              (gs, sat_b)][draw % 3]
            time_s = rng.uniform(0.0, period_s)
            before = service.position_computes
            delay = service.delay_s(node_a, node_b, time_s)
            sat_lookups = (node_a < num_sats) + (node_b < num_sats)
            assert service.position_computes - before == sat_lookups
            assert delay == oracle.delay_s(node_a, node_b, time_s)
            assert type(delay) is float
            distance = service.distance_m(node_a, node_b, time_s)
            assert distance == oracle.distance_m(node_a, node_b, time_s)
            assert type(distance) is float
            for node in (node_a, node_b):
                position = service.position_m(node, time_s)
                assert position == oracle.position_m(node, time_s)
                assert all(type(axis) is float for axis in position)

    def test_ground_to_ground_distance(self, small_network):
        service = PositionService(small_network)
        oracle = _SeedPositionOracle(small_network, 0.001)
        a, b = small_network.gs_node_id(0), small_network.gs_node_id(3)
        assert service.distance_m(a, b, 5.0) == oracle.distance_m(a, b, 5.0)
        assert service.position_computes == 0


class TestLinkDevice:
    def _make(self, rate_bps=8000.0, queue=2, delay_s=0.01):
        sched = EventScheduler()
        delivered = []

        class FakePositions:
            def delay_s(self, a, b, t):
                return delay_s

        device = LinkDevice(sched, FakePositions(), node_id=0,
                            rate_bps=rate_bps, queue_packets=queue,
                            deliver=lambda pkt, node: delivered.append(
                                (sched.now, pkt, node)))
        return sched, device, delivered

    def test_serialization_plus_propagation(self):
        sched, device, delivered = self._make(rate_bps=8000.0, delay_s=0.5)
        # 100 bytes at 8000 bps = 0.1 s serialization.
        device.enqueue(Packet(1, 0, 1, size_bytes=100), to_node=1)
        sched.run()
        assert len(delivered) == 1
        assert delivered[0][0] == pytest.approx(0.6)

    def test_fifo_ordering(self):
        sched, device, delivered = self._make()
        packets = [Packet(1, 0, 1, size_bytes=100, seq=i) for i in range(3)]
        for packet in packets:
            assert device.enqueue(packet, to_node=1)
        sched.run()
        assert [p.seq for _, p, _ in delivered] == [0, 1, 2]

    def test_drop_tail_when_full(self):
        sched, device, delivered = self._make(queue=2)
        results = [device.enqueue(Packet(1, 0, 1, size_bytes=100), 1)
                   for _ in range(5)]
        # 1 in service + 2 queued accepted; 2 dropped.
        assert results == [True, True, True, False, False]
        assert device.stats.packets_dropped == 2
        sched.run()
        assert len(delivered) == 3

    def test_zero_queue_still_transmits_one(self):
        sched, device, delivered = self._make(queue=0)
        assert device.enqueue(Packet(1, 0, 1, size_bytes=100), 1)
        assert not device.enqueue(Packet(1, 0, 1, size_bytes=100), 1)
        sched.run()
        assert len(delivered) == 1

    def test_stats_counters(self):
        sched, device, _ = self._make()
        device.enqueue(Packet(1, 0, 1, size_bytes=100), 1)
        sched.run()
        assert device.stats.packets_sent == 1
        assert device.stats.bytes_sent == 100
        assert device.stats.busy_time_s == pytest.approx(0.1)

    def test_utilization(self):
        sched, device, _ = self._make()
        device.enqueue(Packet(1, 0, 1, size_bytes=100), 1)
        sched.run()
        assert device.stats.utilization(1.0) == pytest.approx(0.1)

    def test_invalid_construction(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            LinkDevice(sched, None, 0, rate_bps=0.0, queue_packets=1,
                       deliver=lambda p, n: None)
        with pytest.raises(ValueError):
            LinkDevice(sched, None, 0, rate_bps=1.0, queue_packets=-1,
                       deliver=lambda p, n: None)


class TestBusyTimeAccounting:
    """Regression: busy time is credited at transmit *finish* and
    pro-rated at measurement boundaries, not credited in full at start
    (which let a window ending mid-serialization report utilization > 1
    and spuriously emit the ``utilization_above_1`` warning)."""

    def _make(self, rate_bps=8000.0):
        sched = EventScheduler()

        class FakePositions:
            def delay_s(self, a, b, t):
                return 0.01

        device = LinkDevice(sched, FakePositions(), node_id=0,
                            rate_bps=rate_bps, queue_packets=4,
                            deliver=lambda pkt, node: None)
        return sched, device

    def test_window_ending_mid_serialization(self):
        from repro.obs.trace import WARNING, RingBufferTracer
        sched, device = self._make(rate_bps=8000.0)
        # 1000 bytes at 8000 bps = 1.0 s serialization; stop at 0.5 s.
        device.enqueue(Packet(1, 0, 1, size_bytes=1000), 1)
        sched.run(until_s=0.5)
        tracer = RingBufferTracer()
        ratio = device.utilization(0.5, tracer=tracer)
        assert ratio <= 1.0
        assert ratio == pytest.approx(1.0)  # busy for the whole window
        assert tracer.events_of(WARNING) == []

    def test_partial_window_pro_rated(self):
        sched, device = self._make(rate_bps=8000.0)
        device.enqueue(Packet(1, 0, 1, size_bytes=1000), 1)  # 1.0 s tx
        sched.run(until_s=0.25)
        # Counter untouched until finish; the accessor pro-rates.
        assert device.stats.busy_time_s == 0.0
        assert device.busy_time_s() == pytest.approx(0.25)
        assert device.utilization(2.0) == pytest.approx(0.125)

    def test_full_credit_at_finish(self):
        sched, device = self._make(rate_bps=8000.0)
        device.enqueue(Packet(1, 0, 1, size_bytes=1000), 1)
        sched.run(until_s=0.5)
        sched.run()
        assert device.stats.busy_time_s == pytest.approx(1.0)
        assert device.busy_time_s() == pytest.approx(1.0)
        assert not device.is_busy

    def test_true_oversubscription_still_warns(self):
        from repro.obs.trace import WARNING, RingBufferTracer
        sched, device = self._make(rate_bps=8000.0)
        for _ in range(3):
            device.enqueue(Packet(1, 0, 1, size_bytes=1000), 1)
        sched.run()  # 3.0 s of busy time
        tracer = RingBufferTracer()
        ratio = device.utilization(1.0, tracer=tracer)
        assert ratio == pytest.approx(3.0)
        warnings = tracer.events_of(WARNING)
        assert len(warnings) == 1
        assert warnings[0].reason == "utilization_above_1"

    def test_oversubscription_warning_carries_link_and_ratio(self):
        from repro.obs.trace import WARNING, RingBufferTracer
        stats = DeviceStats()
        stats.busy_time_s = 3.0
        # Without a tracer the raw ratio comes back unclamped, silently.
        assert stats.utilization(2.0) == pytest.approx(1.5)
        tracer = RingBufferTracer()
        ratio = stats.utilization(2.0, tracer=tracer,
                                  link_name="isl-0-1")
        assert ratio == pytest.approx(1.5)
        (warning,) = tracer.events_of(WARNING)
        assert warning.reason == "utilization_above_1"
        assert warning.link == "isl-0-1"
        assert warning.value == pytest.approx(1.5)
        # At or below 1.0 the warning path stays quiet.
        tracer2 = RingBufferTracer()
        stats.utilization(3.0, tracer=tracer2, link_name="isl-0-1")
        assert tracer2.events_of(WARNING) == []

    def test_window_starting_and_ending_mid_packet(self):
        sched, device = self._make(rate_bps=8000.0)
        device.enqueue(Packet(1, 0, 1, size_bytes=1000), 1)  # 1.0 s tx
        sched.run(until_s=0.8)
        # Nothing credited to the counter yet: the packet is in flight.
        assert device.stats.busy_time_s == 0.0
        # A window fully inside the serialization pro-rates both edges.
        window = device.busy_time_s(0.75) - device.busy_time_s(0.25)
        assert window == pytest.approx(0.5)
        # Clock-default accessor agrees with the explicit ``now``.
        assert device.busy_time_s() == pytest.approx(
            device.busy_time_s(sched.now))


class TestEventStreamPin:
    """The packet engine's whole observable outcome on one small run,
    pinned as a digest recorded *before* the PR 16 hot-path work: the
    golden ``packet_fig2`` digest says the same in ~20 s of
    ``make bench-e2e``; this says it inside tier-1."""

    DURATION_S = 3.0
    DIGEST = (
        "4e79a8c0725951c0041e1af8108dc2a6461e68a4205a4461f89ef1b4d06a6cb7")

    def test_lab_run_is_bit_identical(self):
        import hashlib
        import json

        from repro.cc.lab import lab_network
        from repro.core.workloads import random_permutation_pairs
        from repro.simulation.simulator import LinkConfig, PacketSimulator
        from repro.transport.tcp import TcpFlow

        network = lab_network("8x8").build()
        sim = PacketSimulator(network, LinkConfig(
            isl_rate_bps=2e6, gsl_rate_bps=2e6,
            isl_queue_packets=25, gsl_queue_packets=25))
        pairs = random_permutation_pairs(network.num_ground_stations, seed=0)
        assert len(pairs) >= 6
        # Every other flow delays its ACKs so delayed-ACK timers are in
        # the pinned stream next to tx-finish, arrival and RTO events.
        flows = [TcpFlow(src, dst, delayed_ack_count=1 + index % 2
                         ).install(sim)
                 for index, (src, dst) in enumerate(pairs)]
        # Stopping between refreshes does not touch the event stream; it
        # only lets the test see the installed next hops change.
        route_changes, previous, refresh = 0, None, 0
        while (refresh + 0.5) * 0.1 < self.DURATION_S:
            sim.run((refresh + 0.5) * 0.1)
            installed = {gid: routing.next_hop.copy() for gid, routing
                         in sim.forwarding._routing.items()}
            if previous is not None:
                route_changes += sum(
                    int(np.count_nonzero(previous[gid] != installed[gid]))
                    for gid in installed)
            previous, refresh = installed, refresh + 1
        sim.run(self.DURATION_S)

        summary = sim.report(include_series=False).as_dict(
            deterministic=True)["summary"]
        assert refresh >= 5 and route_changes >= 1
        assert summary["packets_dropped_queue"] >= 1
        assert sum(flow.timeouts for flow in flows) >= 1
        payload = {
            "summary": summary,
            "flows": [(flow.snd_una, flow.retransmissions, flow.timeouts)
                      for flow in flows],
            "devices": [(device.name, device.stats.packets_sent,
                         device.stats.bytes_sent,
                         device.stats.busy_time_s.hex())
                        for device in sim.iter_devices()],
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode())
        for flow in flows:
            for log in (flow.cwnd_log, flow.rtt_log):
                for array in log.as_arrays():
                    digest.update(array.tobytes())
        assert digest.hexdigest() == self.DIGEST
