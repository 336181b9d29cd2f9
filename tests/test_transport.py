"""Tests for ping, UDP, and TCP transports over the packet simulator."""

import hashlib
import math

import numpy as np
import pytest

from repro.cc.lab import lab_network
from repro.routing.engine import RoutingEngine
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.traffic import FlowRequest, WorkloadSchedule, WorkloadSpawner
from repro.obs.metrics import TimeSeriesLog
from repro.transport.ping import PingSession
from repro.transport.tcp import TcpFlow
from repro.transport.udp import UdpFlow


@pytest.fixture
def sim(small_network) -> PacketSimulator:
    return PacketSimulator(small_network)


class TestBase:
    def test_flow_ids_unique(self, small_network):
        """The simulator numbers the flows installed on it 1, 2, ...:
        unique within it, and alike in two identical simulations of one
        process (no process-global counter)."""
        for _ in range(2):
            sim = PacketSimulator(small_network)
            flows = [UdpFlow(0, 3, rate_bps=100_000.0), TcpFlow(1, 4)]
            assert [flow.flow_id for flow in flows] == [-1, -1]
            for flow in flows:
                flow.install(sim)
            assert [flow.flow_id for flow in flows] == [1, 2]

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
        assert not np.isnan(ping.rtts_s[0])

    def test_stop_time_respected(self, sim):
        ping = PingSession(0, 3, interval_s=0.1).install(sim)
        sim.run(0.55)
        assert len(ping.send_times_s) == 6  # 0.0 .. 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            PingSession(0, 0)
        with pytest.raises(ValueError):
            PingSession(0, 1, interval_s=0.0)


class TestUdp:
    def test_paced_rate(self, small_network):
        sim = PacketSimulator(small_network)
        flow = UdpFlow(0, 3, rate_bps=1_000_000.0).install(sim)
        sim.run(2.0)
        # 1 Mbps for 2 s = 2 Mbit sent; payload goodput slightly lower
        # due to headers.
        expected_packets = int(1_000_000.0 * 2.0 / (1500 * 8))
        assert abs(flow.packets_sent - expected_packets) <= 1
        # Nothing is dropped; only the last few datagrams are in flight.
        assert sim.stats.packets_dropped_queue == 0
        assert 0 <= flow.packets_sent - flow.packets_received <= 10

    def test_goodput_counts_payload_only(self, small_network):
        sim = PacketSimulator(small_network)
        flow = UdpFlow(0, 3, rate_bps=1_000_000.0).install(sim)
        sim.run(10.0)
        goodput = flow.goodput_bps(10.0)
        assert goodput < 1_000_000.0
        assert goodput == pytest.approx(
            1_000_000.0 * (1500 - 40) / 1500, rel=0.02)

    def test_overload_drops(self, small_network):
        sim = PacketSimulator(small_network,
                              LinkConfig(gsl_rate_bps=500_000.0,
                                         gsl_queue_packets=5))
        flow = UdpFlow(0, 3, rate_bps=2_000_000.0).install(sim)
        sim.run(1.0)
        assert flow.packets_received < 0.6 * flow.packets_sent
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

    def test_no_losses_on_overprovisioned_link(self, small_network):
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=1e9, gsl_rate_bps=1e9,
                                         isl_queue_packets=10_000,
                                         gsl_queue_packets=10_000))
        tcp = TcpFlow(0, 3, max_packets=2000).install(sim)
        sim.run(10.0)
        assert tcp.snd_una == 2000
        assert tcp.retransmissions == 0
        assert tcp.timeouts == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TcpFlow(1, 1)


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


class TestNewRenoFairness:
    """Textbook anchor: NewReno flows of one RTT sharing one bottleneck
    (all from Quito to Honolulu, through Quito's 10 Mbit/s uplink and
    its 100-packet queue) split it fairly — Jain's index of the goodputs
    over the second half of an 8 s run is >= 0.95."""

    DURATION_S = 8.0

    @pytest.mark.parametrize("num_flows", [
        2,
        pytest.param(4, marks=pytest.mark.xfail(strict=True, reason=(
            "finding: after the synchronized slow-start overshoot the "
            "first flow keeps about twice the others' share for several "
            "sawtooth cycles (~4 s each): Jain over 4-8 s reads 0.85 "
            "(EXPERIMENTS.md)")))])
    def test_second_half_jain_index(self, small_network, num_flows):
        sim = PacketSimulator(small_network)
        flows = [TcpFlow(0, 3).install(sim) for _ in range(num_flows)]
        sim.run(self.DURATION_S / 2)
        half = np.array([flow.acked_payload_bytes for flow in flows])
        sim.run(self.DURATION_S)
        goodput = np.array([flow.acked_payload_bytes
                            for flow in flows]) - half
        jain = goodput.sum() ** 2 / (num_flows * (goodput ** 2).sum())
        assert goodput.sum() * 8 / (self.DURATION_S / 2) > 8e6
        assert jain >= 0.95, f"Jain {jain:.3f} over {goodput.tolist()}"


class TestSackRecovery:
    """RFC 6675 §5 step (4.3): on entering loss recovery the sender
    retransmits the first segment presumed lost at once, whatever the
    pipe.  Probed on the fairness anchor's first loss episode (four
    NewReno flows through Quito's 100-packet uplink, 1 s)."""

    @pytest.mark.xfail(strict=True, reason=(
        "finding: the first retransmission of an episode waits for pipe < "
        "cwnd; cwnd was just halved and pipe is still about the whole "
        "flight, so it leaves late or never, and the RTO (about srtt "
        "under a standing queue) fires first (EXPERIMENTS.md)"))
    def test_entering_recovery_resends_the_first_hole_at_once(
            self, small_network):
        sim = PacketSimulator(small_network)
        entries, resent = [], set()
        for _ in range(4):
            flow = TcpFlow(0, 3).install(sim)

            def enter(flow=flow, enter=flow._enter_fast_recovery):
                entries.append((flow.flow_id, flow._next_retransmission(),
                                sim.now))
                enter()

            def transmit(seq, retransmit, flow=flow,
                         transmit=flow._transmit):
                if retransmit:
                    resent.add((flow.flow_id, seq, sim.now))
                transmit(seq, retransmit)

            flow._enter_fast_recovery = enter
            flow._transmit = transmit
        sim.run(1.0)
        assert len(entries) >= 4
        late = [entry for entry in entries if entry not in resent]
        assert not late, f"first hole not resent on entering recovery: {late}"


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
    own NewReno factory): ``TcpFlow(controller=...)`` and
    ``WorkloadSpawner`` must reproduce them bit for bit."""

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
        assert {flow.controller.name for flow in spawner.flows} == \
            {"newreno"}
        assert hashlib.sha256(repr(spawner.fcts_s).encode()).hexdigest() \
            == ("a92401d5b8c4969e0259fd328b2ac8c3"
                "47e0268b7c74b54e192c1b7e874f7f93")
