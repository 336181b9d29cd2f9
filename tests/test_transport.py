"""Tests for ping, UDP, and TCP transports over the packet simulator."""

import hashlib
import math

import numpy as np
import pytest

from repro.cc import make_controller
from repro.cc.lab import lab_network
from repro.routing.engine import RoutingEngine
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.traffic import FlowRequest, WorkloadSchedule, WorkloadSpawner
from repro.transport.base import TimeSeriesLog, allocate_flow_id
from repro.transport.ping import PingSession
from repro.transport.tcp import TcpFlow
from repro.transport.udp import UdpFlow


@pytest.fixture
def sim(small_network) -> PacketSimulator:
    return PacketSimulator(small_network)


class TestBase:
    def test_flow_ids_unique(self):
        assert allocate_flow_id() != allocate_flow_id()

    def test_time_series_log(self):
        log = TimeSeriesLog()
        log.append(0.0, 1.0)
        log.append(1.0, 2.0)
        times, values = log.as_arrays()
        np.testing.assert_allclose(times, [0.0, 1.0])
        np.testing.assert_allclose(values, [1.0, 2.0])
        assert len(log) == 2

    def test_double_install_rejected(self, sim):
        app = PingSession(0, 3)
        app.install(sim)
        with pytest.raises(RuntimeError):
            app.install(sim)


class TestPing:
    def test_rtts_match_computed(self, small_network):
        engine = RoutingEngine(small_network)
        snap = small_network.snapshot(0.0)
        computed_rtt = engine.pair_rtt_s(snap, 0, 3)
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=1e12,
                                         gsl_rate_bps=1e12))
        ping = PingSession(0, 3, interval_s=0.1).install(sim)
        sim.run(2.0)
        times, rtts = ping.answered()
        assert len(rtts) > 10
        # Serialization is negligible at 1 Tbps, so ping RTT tracks the
        # networkx-computed RTT closely (paper Fig. 3's "lines overlap").
        np.testing.assert_allclose(rtts, computed_rtt, rtol=0.02)

    def test_unanswered_probes_are_nan(self, small_network):
        sim = PacketSimulator(small_network)
        ping = PingSession(0, 3, interval_s=0.01).install(sim)
        sim.run(1.0)
        # The last probes cannot return before the simulation ends
        # (paper: "the last few pings' RTT is shown as 0").
        assert np.isnan(ping.rtts_s[-1])
        assert ping.loss_fraction > 0.0

    def test_stop_time_respected(self, sim):
        ping = PingSession(0, 3, interval_s=0.1, stop_s=0.55).install(sim)
        sim.run(2.0)
        assert len(ping.send_times_s) == 6  # 0.0 .. 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PingSession(0, 0)
        with pytest.raises(ValueError):
            PingSession(0, 1, interval_s=0.0)


class TestUdp:
    def test_paced_rate(self, small_network):
        sim = PacketSimulator(small_network)
        flow = UdpFlow(0, 3, rate_bps=1_000_000.0, stop_s=2.0).install(sim)
        sim.run(3.0)
        # 1 Mbps for 2 s = 2 Mbit sent; payload goodput slightly lower
        # due to headers.
        expected_packets = int(1_000_000.0 * 2.0 / (1500 * 8))
        assert abs(flow.packets_sent - expected_packets) <= 1
        assert flow.packets_received == flow.packets_sent
        assert flow.loss_fraction == 0.0

    def test_goodput_counts_payload_only(self, small_network):
        sim = PacketSimulator(small_network)
        flow = UdpFlow(0, 3, rate_bps=1_000_000.0, stop_s=1.0).install(sim)
        sim.run(2.0)
        goodput = flow.goodput_bps(1.0)
        assert goodput < 1_000_000.0
        assert goodput == pytest.approx(
            1_000_000.0 * (1500 - 40) / 1500, rel=0.02)

    def test_overload_drops(self, small_network):
        sim = PacketSimulator(small_network,
                              LinkConfig(gsl_rate_bps=500_000.0,
                                         gsl_queue_packets=5))
        flow = UdpFlow(0, 3, rate_bps=2_000_000.0, stop_s=1.0).install(sim)
        sim.run(2.0)
        assert flow.loss_fraction > 0.4
        assert sim.stats.packets_dropped_queue > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            UdpFlow(0, 1, rate_bps=0.0)
        with pytest.raises(ValueError):
            UdpFlow(2, 2, rate_bps=1.0)


class TestTcpBasics:
    def test_finite_transfer_completes(self, small_network):
        sim = PacketSimulator(small_network)
        tcp = TcpFlow(0, 3, max_packets=200).install(sim)
        sim.run(10.0)
        assert tcp.snd_una == 200
        assert tcp.rcv_nxt == 200

    def test_goodput_reasonable(self, small_network):
        sim = PacketSimulator(small_network)
        tcp = TcpFlow(0, 3).install(sim)
        sim.run(10.0)
        goodput = tcp.goodput_bps(10.0)
        # Should fill a large fraction of the 10 Mbps bottleneck.
        assert goodput > 6_000_000.0

    def test_rtt_samples_at_least_base_rtt(self, small_network):
        engine = RoutingEngine(small_network)
        base = engine.pair_rtt_s(small_network.snapshot(0.0), 0, 3)
        sim = PacketSimulator(small_network)
        tcp = TcpFlow(0, 3).install(sim)
        sim.run(5.0)
        _, rtts = tcp.rtt_log.as_arrays()
        assert rtts.min() >= base * 0.95

    def test_queue_inflates_rtt(self, small_network):
        """Loss-based TCP fills the buffer, inflating per-packet RTT by
        about queue/rate (paper §4.2)."""
        engine = RoutingEngine(small_network)
        base = engine.pair_rtt_s(small_network.snapshot(0.0), 0, 3)
        sim = PacketSimulator(small_network)
        tcp = TcpFlow(0, 3).install(sim)
        sim.run(20.0)
        _, rtts = tcp.rtt_log.as_arrays()
        queue_delay = 100 * 1500 * 8 / 10e6  # 120 ms
        assert rtts.max() > base + 0.5 * queue_delay

    def test_cwnd_bounded_by_bdp_plus_queue(self, small_network):
        sim = PacketSimulator(small_network)
        tcp = TcpFlow(0, 3).install(sim)
        sim.run(20.0)
        _, cwnd = tcp.cwnd_log.as_arrays()
        engine = RoutingEngine(small_network)
        base = engine.pair_rtt_s(small_network.snapshot(0.0), 0, 3)
        bdp_packets = 10e6 * (base + 0.12) / (1500 * 8)
        # After the initial transient the window stays near BDP+Q; allow
        # the slow-start overshoot factor of 2 plus margin.
        assert cwnd.max() <= 2.5 * (bdp_packets + 100)

    def test_rwnd_caps_window(self, small_network):
        sim = PacketSimulator(small_network)
        tcp = TcpFlow(0, 3, rwnd_packets=20).install(sim)
        sim.run(5.0)
        assert tcp.snd_nxt - 0 <= 20 or tcp.flight_size <= 20

    def test_no_losses_on_overprovisioned_link(self, small_network):
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=1e9, gsl_rate_bps=1e9,
                                         isl_queue_packets=10_000,
                                         gsl_queue_packets=10_000))
        tcp = TcpFlow(0, 3, max_packets=2000,
                             rwnd_packets=500).install(sim)
        sim.run(10.0)
        assert tcp.snd_una == 2000
        assert tcp.retransmissions == 0
        assert tcp.timeouts == 0

    def test_delayed_ack_mode_runs(self, small_network):
        sim = PacketSimulator(small_network)
        tcp = TcpFlow(0, 3, max_packets=500,
                             delayed_ack_count=2).install(sim)
        sim.run(20.0)
        assert tcp.snd_una == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            TcpFlow(1, 1)
        with pytest.raises(ValueError):
            TcpFlow(0, 1, packet_bytes=30)
        with pytest.raises(ValueError):
            TcpFlow(0, 1, delayed_ack_count=0)
        with pytest.raises(ValueError):
            TcpFlow(0, 1, rwnd_packets=0)


class TestTcpLossRecovery:
    def test_recovers_from_drops(self, small_network):
        # Small queues force drops; the flow must still deliver all data.
        sim = PacketSimulator(small_network,
                              LinkConfig(gsl_queue_packets=10,
                                         isl_queue_packets=10))
        tcp = TcpFlow(0, 3, max_packets=1000).install(sim)
        sim.run(40.0)
        assert tcp.snd_una == 1000
        assert sim.stats.packets_dropped_queue > 0
        assert tcp.retransmissions > 0

    def test_fast_retransmit_preferred_over_timeout(self, small_network):
        sim = PacketSimulator(small_network)
        tcp = TcpFlow(0, 3).install(sim)
        sim.run(30.0)
        # With SACK and a steady sawtooth, recovery should almost always
        # be via fast retransmit, not RTO.
        assert tcp.fast_retransmits >= 1
        assert tcp.timeouts <= tcp.fast_retransmits

    def test_in_order_delivery_after_recovery(self, small_network):
        sim = PacketSimulator(small_network,
                              LinkConfig(gsl_queue_packets=20,
                                         isl_queue_packets=20))
        tcp = TcpFlow(0, 3, max_packets=800).install(sim)
        sim.run(30.0)
        assert tcp.rcv_nxt == 800
        assert not tcp._out_of_order


class TestVegas:
    def test_keeps_queue_nearly_empty(self, small_network):
        """Vegas' RTT stays near the base RTT (paper Fig. 5(a) before the
        disruption), unlike NewReno which fills the buffer."""
        engine = RoutingEngine(small_network)
        base = engine.pair_rtt_s(small_network.snapshot(0.0), 0, 3)
        sim = PacketSimulator(small_network)
        vegas = TcpFlow(0, 3, controller="vegas").install(sim)
        sim.run(15.0)
        _, rtts = vegas.rtt_log.as_arrays()
        later = rtts[len(rtts) // 2:]
        queue_delay = 100 * 1500 * 8 / 10e6
        assert np.median(later) < base + 0.3 * queue_delay

    def test_achieves_good_throughput_on_stable_path(self, small_network):
        sim = PacketSimulator(small_network)
        vegas = TcpFlow(0, 3, controller="vegas").install(sim)
        sim.run(15.0)
        assert vegas.goodput_bps(15.0) > 5_000_000.0

    def test_base_rtt_tracked(self, small_network):
        engine = RoutingEngine(small_network)
        base = engine.pair_rtt_s(small_network.snapshot(0.0), 0, 3)
        sim = PacketSimulator(small_network)
        vegas = TcpFlow(0, 3, controller="vegas").install(sim)
        sim.run(5.0)
        assert vegas.controller.base_rtt_s == pytest.approx(base, rel=0.1)

    def test_cwnd_floor(self, small_network):
        sim = PacketSimulator(small_network)
        vegas = TcpFlow(0, 3, controller="vegas").install(sim)
        sim.run(10.0)
        _, cwnd = vegas.cwnd_log.as_arrays()
        assert cwnd.min() >= 1.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_controller("vegas", alpha=5.0, beta=4.0)

    def test_rtt_increase_cuts_window(self, small_network):
        """The Fig. 5 mechanism in isolation: once the base RTT is
        established, a persistent RTT increase (simulated by a sudden
        path-delay change) drives diff above beta and the window down."""
        sim = PacketSimulator(small_network)
        vegas = TcpFlow(0, 3, controller="vegas").install(sim)
        sim.run(10.0)
        cwnd_before = vegas.cwnd
        # Inject synthetic higher-RTT samples: as if the path lengthened
        # by 30 ms with no queueing.
        for _ in range(50):
            vegas._on_rtt_sample(vegas.controller.base_rtt_s + 0.03)
            sim.run(sim.now + 0.2)
        assert vegas.cwnd < cwnd_before


class TestShimMigrationPins:
    """Digests recorded on the last commit that still had the
    ``TcpNewRenoFlow`` / ``TcpVegasFlow`` / ``TcpBbrFlow`` classes, from
    runs built through those classes (and, for the spawner, through its
    own NewReno factory): ``TcpFlow(controller=...)`` and the shared
    ``ControllerFlowFactory`` must reproduce them bit for bit."""

    LOSSY = LinkConfig(gsl_queue_packets=25, isl_queue_packets=25)

    @pytest.fixture(scope="class")
    def lab_8x8(self):
        return lab_network("8x8").build()

    @pytest.mark.parametrize("controller,counters,digest", [
        ("newreno", (600, 149, 2), "4f69b882b896b403976d505d68b437ca"
                                   "1e6d37d0de4936fbc0035b6aa17e85a5"),
        ("vegas", (600, 13, 1), "c892cdd5e54d81f6d090051f084def72"
                                "9f061ab9828e05b5975af7b3076a5fa1"),
        ("bbr", (600, 269, 2), "0b274f4fb364e72df4a7d9d4e97594ec"
                               "76537e4b1f55389fff3f76befa18e330"),
    ])
    def test_lossy_flow_matches_shim_class(self, lab_8x8, controller,
                                           counters, digest):
        sim = PacketSimulator(lab_8x8, link_config=self.LOSSY)
        flow = TcpFlow(0, 3, max_packets=600,
                       controller=controller).install(sim)
        sim.run(8.0)
        state = (flow.snd_una, flow.retransmissions, flow.timeouts)
        assert state == counters
        sha = hashlib.sha256(repr(state).encode())
        for log in (flow.cwnd_log, flow.rtt_log):
            for array in log.as_arrays():
                sha.update(array.tobytes())
        assert sha.hexdigest() == digest

    def test_spawner_default_factory_matches_parent(self, lab_8x8):
        schedule = WorkloadSchedule([
            FlowRequest(0.0, 0, 3, 150_000), FlowRequest(0.1, 1, 4, 40_000),
            FlowRequest(0.25, 2, 5, 1), FlowRequest(0.4, 3, 0, 90_001),
            FlowRequest(0.4, 4, 1, 300_000)])
        sim = PacketSimulator(lab_8x8, link_config=self.LOSSY)
        spawner = WorkloadSpawner(schedule).install(sim)
        sim.run(8.0)
        assert sim.stats.packets_dropped_queue == 18
        # ceil(size / payload), never below one packet.
        assert [flow.max_packets for flow in spawner.flows] == \
            [103, 28, 1, 62, 206]
        assert spawner.fcts_by_controller == {"newreno": spawner.fcts_s}
        assert hashlib.sha256(repr(spawner.fcts_s).encode()).hexdigest() \
            == ("a92401d5b8c4969e0259fd328b2ac8c3"
                "47e0268b7c74b54e192c1b7e874f7f93")
