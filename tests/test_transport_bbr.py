"""Tests for the simplified BBR implementation."""

import numpy as np
import pytest

from repro.constellations.builder import Constellation
from repro.faults import FaultEvent, FaultSchedule
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.orbits.shell import Shell
from repro.routing.engine import RoutingEngine
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.topology.network import LeoNetwork
from repro.transport.tcp import TcpFlow


@pytest.fixture(scope="class")
def bbr_run():
    """One BBR flow, station 0 -> 3 on conftest's ``small_network``, run
    to 10 s, 15 s and 20 s: what it reads at the first two stops, and the
    flow at 20 s.  A run continues where it stopped, so this is the run
    each reader would otherwise repeat on its own network."""
    shell = Shell(name="X1", num_orbits=10, satellites_per_orbit=10,
                  altitude_m=600_000.0, inclination_deg=53.0)
    sites = [("Quito", 0.0, -78.5), ("Nairobi", -1.3, 36.8),
             ("Singapore", 1.35, 103.8), ("Honolulu", 21.3, -157.9),
             ("Sydney", -33.9, 151.2), ("Madrid", 40.4, -3.7)]
    stations = [GroundStation(gid=i, name=name,
                              position=GeodeticPosition(lat, lon, 0.0))
                for i, (name, lat, lon) in enumerate(sites)]
    network = LeoNetwork(Constellation([shell]), stations,
                         min_elevation_deg=10.0)
    sim = PacketSimulator(network)
    bbr = TcpFlow(0, 3, controller="bbr").install(sim)
    sim.run(10.0)
    mode_at_10s = bbr.controller._mode
    sim.run(15.0)
    rt_prop_at_15s = bbr.controller.rt_prop_s
    sim.run(20.0)
    return mode_at_10s, rt_prop_at_15s, bbr


class TestBbrBasics:
    def test_finite_transfer_completes(self, small_network):
        sim = PacketSimulator(small_network)
        bbr = TcpFlow(0, 3, controller="bbr", max_packets=300).install(sim)
        sim.run(20.0)
        assert bbr.snd_una == 300
        assert bbr.rcv_nxt == 300

    def test_reaches_bottleneck_bandwidth(self, bbr_run):
        bbr = bbr_run[2]
        assert bbr.controller.btl_bw_bps == pytest.approx(10e6, rel=0.15)
        assert bbr.goodput_bps(20.0) > 6e6

    def test_exits_startup(self, bbr_run):
        assert bbr_run[0] == "probe_bw"  # at 10 s

    def test_rt_prop_near_path_rtt(self, small_network, bbr_run):
        engine = RoutingEngine(small_network)
        base = engine.pair_rtt_s(small_network.snapshot(0.0), 0, 3)
        # rt_prop (at 15 s) includes per-hop serialization, so allow
        # headroom above the propagation-only figure.
        assert base * 0.95 < bbr_run[1] < base + 0.08

    def test_keeps_queue_shallower_than_newreno(self, small_network,
                                                bbr_run):
        bbr = bbr_run[2]
        sim = PacketSimulator(small_network)
        reno = TcpFlow(0, 3).install(sim)
        sim.run(20.0)
        _, bbr_rtt = bbr.rtt_log.as_arrays()
        _, reno_rtt = reno.rtt_log.as_arrays()
        later = slice(len(bbr_rtt) // 2, None)
        assert np.median(bbr_rtt[later]) < np.median(
            reno_rtt[len(reno_rtt) // 2:])

    def test_min_rtt_window_expires_old_samples(self, small_network):
        """The LEO-critical property: after a path-change RTT increase,
        rt_prop adopts the new value within the 10 s window, unlike
        Vegas' all-time minimum."""
        sim = PacketSimulator(small_network)
        # A finite transfer: once it completes, the flow produces no
        # genuine samples and the injected post-change samples rule.
        bbr = TcpFlow(0, 3, controller="bbr", max_packets=100).install(sim)
        sim.run(5.0)
        assert bbr.snd_una == 100
        old_rt_prop = bbr.controller.rt_prop_s
        # Synthetic +30 ms samples, as if the path lengthened.
        for i in range(40):
            sim.run(5.0 + (i + 1) * 0.4)
            bbr._on_rtt_sample(old_rt_prop + 0.03)
        assert bbr.controller.rt_prop_s >= old_rt_prop + 0.029

    def test_cwnd_tracks_two_bdp(self, bbr_run):
        bbr = bbr_run[2]
        model = bbr.controller
        expected = 2.0 * model.btl_bw_bps * model.rt_prop_s / (1500 * 8)
        assert bbr.cwnd == pytest.approx(max(4.0, expected), rel=0.01)

    def test_recovers_from_mid_flow_loss_burst(self, small_constellation,
                                               small_stations):
        """A seeded fault burst (30% loss on the source uplink over
        [8, 11) s) dents BBR's delivery but the model-driven cwnd and
        pacing recover once the burst ends, instead of staying collapsed
        the way a loss-halving controller would."""
        faults = FaultSchedule([
            FaultEvent.packet_loss(8.0, 11.0, 0.3, gid=0)], seed=3)
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        sim = PacketSimulator(network)
        bbr = TcpFlow(0, 3, controller="bbr").install(sim)
        sim.run(8.0)
        before_rcv = bbr.rcv_nxt
        before_cwnd = bbr.cwnd
        sim.run(11.0)
        burst_rcv = bbr.rcv_nxt
        sim.run(20.0)
        # The burst really happened and really hurt delivery.
        assert sim.stats.packets_dropped_fault > 0
        burst_rate = (burst_rcv - before_rcv) / 3.0
        after_rate = (bbr.rcv_nxt - burst_rcv) / 9.0
        assert after_rate > burst_rate
        # Recovery shape: cwnd back at the model's 2-BDP operating point,
        # within 10% of its pre-burst level, and pacing tracks btl_bw.
        model = bbr.controller
        expected = 2.0 * model.btl_bw_bps * model.rt_prop_s / (1500 * 8)
        assert bbr.cwnd == pytest.approx(max(4.0, expected), rel=0.01)
        assert bbr.cwnd == pytest.approx(before_cwnd, rel=0.1)
        assert model._pacing_rate_bps >= 0.9 * model.btl_bw_bps
        assert bbr.goodput_bps(20.0) > 2.5e6

    def test_cwnd_tracks_abrupt_rtt_step(self, small_network):
        """An abrupt +40 ms RTT step (handover to a longer path): the
        in-flight cap follows rt_prop up — cwnd grows towards the new
        2-BDP once the min-RTT window expires — and pacing, which is
        bandwidth- not RTT-derived, stays put."""
        sim = PacketSimulator(small_network)
        bbr = TcpFlow(0, 3, controller="bbr", max_packets=100).install(sim)
        sim.run(5.0)
        assert bbr.snd_una == 100  # transfer done; samples now synthetic
        # Pin the bandwidth leg of the model.
        fixed_bw = bbr.controller.btl_bw_bps
        old_rt_prop = bbr.controller.rt_prop_s
        packet_bits = bbr.packet_bytes * 8.0
        old_cwnd = max(4.0, 2.0 * fixed_bw * old_rt_prop / packet_bits)
        pacing_at_step = None
        for i in range(40):
            sim.run(5.0 + (i + 1) * 0.4)
            bbr.controller._bw_filter.append((sim.now, fixed_bw))
            bbr._on_rtt_sample(old_rt_prop + 0.04)
            if pacing_at_step is None:
                pacing_at_step = bbr.controller._pacing_rate_bps
        assert bbr.controller.rt_prop_s >= old_rt_prop + 0.039
        # cwnd scales with rt_prop: new/old ratio matches the RTT ratio.
        assert bbr.cwnd == pytest.approx(
            max(4.0, 2.0 * fixed_bw * bbr.controller.rt_prop_s / packet_bits))
        assert bbr.cwnd / old_cwnd == pytest.approx(
            bbr.controller.rt_prop_s / old_rt_prop, rel=0.05)
        # Pacing is bandwidth-derived, not RTT-derived: with the estimate
        # pinned, the growing rt_prop never moves the pacing rate.
        assert bbr.controller._pacing_rate_bps == pytest.approx(pacing_at_step)
        # A step *down* is adopted immediately (min filter, no window).
        bbr._on_rtt_sample(old_rt_prop / 2.0)
        assert bbr.controller.rt_prop_s == pytest.approx(old_rt_prop / 2.0)

    def test_loss_does_not_collapse_rate(self, small_network):
        """With tiny buffers (heavy loss), BBR keeps making progress at a
        substantial fraction of the bottleneck (BBR v1 is known to be
        loss-heavy at its 2-BDP in-flight cap over shallow buffers, but
        it does not collapse to the floor)."""
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_queue_packets=10,
                                         gsl_queue_packets=10))
        bbr = TcpFlow(0, 3, controller="bbr").install(sim)
        sim.run(20.0)
        assert bbr.goodput_bps(20.0) > 2.5e6
        assert bbr.rcv_nxt > 0
