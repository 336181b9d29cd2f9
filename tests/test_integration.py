"""Integration tests: end-to-end scenarios exercising the full stack.

These reproduce the *mechanisms* behind the paper's findings at test
scale: simulated pings tracking geometry-computed RTTs, bent-pipe relay
routing, and packet/fluid engine agreement.
"""

import numpy as np
import pytest

from repro import Hypatia
from repro.fluid.engine import FluidFlow, FluidSimulation
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import relay_grid_between
from repro.routing.engine import RoutingEngine
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.sweep import sweep_timelines
from repro.topology.dynamic_state import snapshot_times
from repro.transport.ping import PingSession
from repro.transport.tcp import TcpFlow
from repro.transport.udp import UdpFlow


class TestPingTracksComputedRtt:
    def test_over_time(self, small_network):
        """Paper Fig. 3: ping measurements and networkx-computed RTTs
        'match closely, with the lines almost entirely overlapping'."""
        duration = 30.0
        timeline = sweep_timelines(small_network, [(0, 3)],
                                   snapshot_times(duration, 1.0))[(0, 3)]
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=1e12,
                                         gsl_rate_bps=1e12))
        ping = PingSession(0, 3, interval_s=1.0).install(sim)
        sim.run(duration)
        rtts = ping.rtts_s
        computed = timeline.rtts_s
        answered = ~np.isnan(rtts)
        # Compare probe k with the snapshot at the same second.
        matched = 0
        for k in np.nonzero(answered)[0]:
            if np.isfinite(computed[k]):
                assert rtts[k] == pytest.approx(computed[k], rel=0.05)
                matched += 1
        assert matched > duration * 0.8

    def test_rtt_changes_with_path_changes(self, small_network):
        """Over a long window, the measured RTT series is not constant —
        satellite motion changes paths and latencies (paper §4.1)."""
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=1e12,
                                         gsl_rate_bps=1e12))
        ping = PingSession(0, 3, interval_s=2.0).install(sim)
        sim.run(120.0)
        _, rtts = ping.answered()
        assert rtts.max() - rtts.min() > 1e-4  # at least 0.1 ms of change


class TestBentPipeRelays:
    def _bent_pipe_hypatia(self):
        relays = relay_grid_between(GeodeticPosition(48.86, 2.35),
                                    GeodeticPosition(55.76, 37.62),
                                    rows=3, columns=5)
        return Hypatia.from_shell_name("K1", num_cities=100,
                                       isl_builder="none",
                                       extra_stations=relays)

    def test_relay_path_exists_and_alternates(self):
        """Appendix A: without ISLs, Paris-Moscow connects through GS
        relays, alternating satellite and ground hops."""
        hypatia = self._bent_pipe_hypatia()
        pair = hypatia.pair("Paris", "Moscow")
        snap = hypatia.snapshot(0.0)
        path = hypatia.routing.path(snap, *pair)
        assert path is not None
        kinds = []
        for node in path:
            if node < hypatia.network.num_satellites:
                kinds.append("sat")
            else:
                station = hypatia.ground_stations[
                    node - hypatia.network.num_satellites]
                kinds.append("relay" if station.is_relay else "gs")
        # Endpoints are GSes; interior alternates sat/relay, never two
        # satellites in a row (there are no ISLs).
        assert kinds[0] == "gs" and kinds[-1] == "gs"
        for a, b in zip(kinds, kinds[1:]):
            assert not (a == "sat" and b == "sat")
        assert "relay" in kinds or kinds.count("sat") == 1

    def test_bent_pipe_rtt_higher_than_isl(self):
        """Appendix A Fig. 18(c): bent-pipe RTT exceeds the ISL RTT."""
        bent = self._bent_pipe_hypatia()
        isl = Hypatia.from_shell_name("K1", num_cities=100)
        pair_bent = bent.pair("Paris", "Moscow")
        pair_isl = isl.pair("Paris", "Moscow")
        bent_rtts = []
        isl_rtts = []
        for t in [0.0, 30.0, 60.0]:
            bent_rtts.append(bent.routing.pair_rtt_s(
                bent.snapshot(t), *pair_bent))
            isl_rtts.append(isl.routing.pair_rtt_s(
                isl.snapshot(t), *pair_isl))
        bent_mean = np.mean([r for r in bent_rtts if np.isfinite(r)])
        isl_mean = np.mean([r for r in isl_rtts if np.isfinite(r)])
        assert bent_mean > isl_mean


class TestPacketVsGeometry:
    def test_udp_one_way_delay_matches_path(self, small_network):
        engine = RoutingEngine(small_network)
        snap = small_network.snapshot(0.0)
        one_way = engine.pair_distance_m(snap, 1, 4) / 299_792_458.0
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=1e12,
                                         gsl_rate_bps=1e12))
        arrivals = []
        flow = UdpFlow(1, 4, rate_bps=100_000.0)
        flow.install(sim)
        original = flow._on_receive

        def traced(packet):
            arrivals.append(sim.now - packet.sent_at_s)
            original(packet)

        sim._handlers[(sim.gs_node_id(4), flow.flow_id)] = traced
        sim.run(1.0)
        assert arrivals
        assert arrivals[0] == pytest.approx(one_way, rel=0.01)


class TestFluidVsPacketAgreement:
    def test_single_bottleneck_rates_agree(self, small_network):
        """The ablation check promised in DESIGN.md: on a small static
        scenario both engines find the same equilibrium shares."""
        flows = [(0, 3), (1, 3)]
        # Fluid: two elastic flows; shared bottleneck is the destination
        # GSL downlink of GS 3 if paths converge, else their own links.
        fluid = FluidSimulation(
            small_network, [FluidFlow(s, d) for s, d in flows],
            link_capacity_bps=5e6)
        fluid_result = fluid.run(duration_s=2.0, step_s=1.0)
        fluid_rates = fluid_result.flow_rates_bps[-1]

        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=5e6,
                                         gsl_rate_bps=5e6))
        tcps = [TcpFlow(s, d).install(sim) for s, d in flows]
        sim.run(30.0)
        packet_rates = np.array([tcp.goodput_bps(30.0) for tcp in tcps])
        # TCP goodput (payload) runs below the fluid wire rate, and AIMD
        # splits a shared bottleneck in proportion to 1/RTT rather than
        # equally — so compare the aggregate, and require each flow to
        # get a non-trivial share rather than the exact max-min one.
        assert packet_rates.sum() > 0.5 * fluid_rates.sum()
        assert packet_rates.sum() < 1.05 * fluid_rates.sum()
        for fluid_rate, packet_rate in zip(fluid_rates, packet_rates):
            assert packet_rate > 0.1 * fluid_rate
            assert packet_rate < 1.05 * fluid_rates.sum()

    def test_aggregate_throughput_conserved(self, small_network):
        """Total TCP goodput cannot exceed the max-min total."""
        flows = [(0, 3), (1, 4), (2, 5)]
        fluid = FluidSimulation(
            small_network, [FluidFlow(s, d) for s, d in flows],
            link_capacity_bps=5e6)
        fluid_total = fluid.run(2.0, 1.0).flow_rates_bps[-1].sum()
        sim = PacketSimulator(small_network,
                              LinkConfig(isl_rate_bps=5e6,
                                         gsl_rate_bps=5e6))
        tcps = [TcpFlow(s, d).install(sim) for s, d in flows]
        sim.run(20.0)
        packet_total = sum(tcp.goodput_bps(20.0) for tcp in tcps)
        assert packet_total <= fluid_total * 1.05


class TestMultiFlowIsolation:
    def test_flows_on_disjoint_paths_unaffected(self, small_network):
        """A congested flow elsewhere must not disturb a disjoint flow."""
        sim = PacketSimulator(small_network)
        solo = TcpFlow(0, 3).install(sim)
        sim.run(15.0)
        solo_goodput = solo.goodput_bps(15.0)

        sim2 = PacketSimulator(small_network)
        both_a = TcpFlow(0, 3).install(sim2)
        TcpFlow(4, 5).install(sim2)
        sim2.run(15.0)
        with_other = both_a.goodput_bps(15.0)
        # Paths 0-3 and 4-5 are geographically distant; allow 25% noise
        # for any shared ISLs.
        assert with_other > 0.75 * solo_goodput
