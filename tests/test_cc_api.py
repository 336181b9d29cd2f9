"""Congestion-control plug-in API tests (repro.cc).

The heavyweight bit-identity gate (full anchor scenarios, every classic)
lives in ``benchmarks/test_cc_matrix.py``; here we prove the API
semantics — controller names, estimator arithmetic, JSON-expressible
controller state, the controller inspection surface —
plus one light parity run per classic against the frozen seed classes in
``tests/_seed_transport.py``, and stop-and-continue parity of a
spawner-built BBR workload, the property a replayed service checkpoint
rests on.
"""

import json
import random
from collections import deque

import numpy as np
import pytest

from repro.cc import CONTROLLERS
from repro.cc.api import RTO_INITIAL_S, RTO_MAX_S, RTO_MIN_S, RttEstimator
from repro.cc.classic import NewRenoController, VegasController
from repro.constellations.builder import Constellation
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.obs.metrics import MetricsRegistry
from repro.orbits.shell import Shell
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.sweep.spec import NetworkSpec
from repro.topology.network import LeoNetwork
from repro.traffic import FlowRequest, WorkloadSchedule
from repro.traffic.spawner import WorkloadSpawner, packet_fct_section
from repro.transport.tcp import TcpFlow

from _seed_transport import (SeedTcpBbrFlow, SeedTcpNewRenoFlow,
                             SeedTcpVegasFlow)

pytestmark = pytest.mark.cc


class TestRttEstimator:
    def test_first_sample(self):
        est = RttEstimator()
        assert est.srtt is None and est.rto == RTO_INITIAL_S
        est.observe(0.3)
        assert est.srtt == 0.3
        assert est.rttvar == 0.15
        assert est.rto == pytest.approx(0.3 + 4 * 0.15)

    def test_subsequent_samples_rfc6298(self):
        est = RttEstimator()
        est.observe(0.3)
        est.observe(0.1)
        assert est.rttvar == pytest.approx(0.75 * 0.15 + 0.25 * 0.2)
        assert est.srtt == pytest.approx(0.875 * 0.3 + 0.125 * 0.1)

    def test_rto_clamped(self):
        est = RttEstimator()
        est.observe(0.001)
        assert est.rto == RTO_MIN_S
        est.observe(100.0)
        assert est.rto == RTO_MAX_S

    def test_backoff_doubles_and_saturates(self):
        est = RttEstimator()
        est.observe(0.3)
        rto = est.rto
        est.backoff()
        assert est.rto == pytest.approx(2 * rto)
        for _ in range(20):
            est.backoff()
        assert est.rto == RTO_MAX_S


class TestRegistry:
    """A controller is chosen by name only (class name kept for stable
    test ids)."""

    def test_classics_registered(self):
        assert sorted(CONTROLLERS) == ["bbr", "newreno", "vegas"]
        assert all(name == cls.name for name, cls in CONTROLLERS.items())

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown controller "
                           "'no-such-controller'; known: bbr, newreno, "
                           "vegas"):
            TcpFlow(0, 3, controller="no-such-controller")

    def test_spawner_unknown_name_rejected(self):
        """At construction, not at the first flow arrival."""
        schedule = WorkloadSchedule([FlowRequest(1.0, 0, 3, 10_000)])
        with pytest.raises(ValueError, match="unknown controller 'cubic'"):
            WorkloadSpawner(schedule, controller="cubic")

    def test_resolve_default_is_newreno(self):
        assert isinstance(TcpFlow(0, 3).controller, NewRenoController)

    def test_resolve_bad_type(self):
        """A controller class or instance is not a name."""
        flow = TcpFlow(0, 3, controller="vegas")
        for spec in (VegasController, flow.controller, 42):
            with pytest.raises(ValueError, match="unknown controller"):
                TcpFlow(0, 3, controller=spec)


class TestStateDicts:
    """Controller state is plain data (class name kept for stable test
    ids)."""

    def test_bbr_deques_json_expressible(self, small_network):
        import json
        sim = PacketSimulator(small_network)
        flow = TcpFlow(0, 3, max_packets=80, controller="bbr").install(sim)
        sim.run(4.0)
        bbr = flow.controller
        # BBR's windowed max/min filters are deques of (time, value).
        for name in ("_bw_filter", "_rtt_filter"):
            window = getattr(bbr, name)
            assert isinstance(window, deque) and window
            json.dumps(list(window))  # plain numbers, nothing opaque
        assert bbr.btl_bw_bps > 0.0
        assert bbr.flow.controller is bbr


class TestShimSurface:
    """What the removed per-algorithm flow classes exposed, read through
    ``TcpFlow(controller=...)`` (class name kept for stable test ids)."""

    def test_controller_names(self, small_network):
        sim = PacketSimulator(small_network)
        assert TcpFlow(0, 3).install(sim).controller.name == "newreno"
        for gid, name in ((4, "vegas"), (5, "bbr")):
            flow = TcpFlow(0, gid, controller=name).install(sim)
            assert flow.controller.name == name

    def test_vegas_parameters_delegate(self, small_network):
        sim = PacketSimulator(small_network)
        flow = TcpFlow(0, 3, controller="vegas").install(sim)
        assert type(flow.controller) is VegasController
        assert flow.controller.flow is flow
        assert (flow.controller.ALPHA, flow.controller.BETA,
                flow.controller.GAMMA) == (2.0, 4.0, 1.0)

    def test_bbr_is_paced(self, small_network):
        sim = PacketSimulator(small_network)
        flow = TcpFlow(0, 3, controller="bbr").install(sim)
        assert flow.controller.paced
        assert flow.controller._pacing_rate_bps > 0.0


class TestCompletionUnderLossyTail:
    """ISSUE 10 satellite: ``on_complete`` fires exactly once, at the
    final *cumulative* ACK, even when the last segment needs an RTO
    retransmission (no dup-ACKs can flag a tail loss)."""

    @pytest.mark.parametrize("controller", ["newreno", "bbr"])
    def test_on_complete_exactly_once(self, small_network, controller):
        sim = PacketSimulator(small_network)
        total = 40
        flow = TcpFlow(0, 3, max_packets=total,
                       controller=controller).install(sim)
        original = flow._transmit
        swallowed = []

        def lossy_transmit(seq, retransmit):
            # The first copy of the final segment vanishes on the wire.
            if seq == total - 1 and not retransmit and not swallowed:
                swallowed.append(seq)
                return
            original(seq, retransmit)

        flow._transmit = lossy_transmit
        completions = []
        flow.on_complete = completions.append
        sim.run(20.0)

        assert swallowed == [total - 1]
        assert flow.timeouts >= 1  # the tail loss was RTO-recovered
        assert flow.snd_una == total
        assert completions == [flow.completed_at_s]
        assert flow.completed_at_s is not None


def _cwnd_trace(network, flow_class, **kwargs):
    sim = PacketSimulator(network, link_config=LinkConfig(
        gsl_queue_packets=25, isl_queue_packets=25))
    flow = flow_class(0, 3, **kwargs).install(sim)
    sim.run(8.0)
    times, values = flow.cwnd_log.as_arrays()
    return times, values, flow.snd_una, flow.retransmissions


# Ids are the ones these cases had when the second column was a shim
# class, so the test floor keeps naming them.
@pytest.mark.parametrize("seed_class,controller,kwargs", [
    pytest.param(SeedTcpNewRenoFlow, "newreno", {"max_packets": 300},
                 id="SeedTcpNewRenoFlow-TcpNewRenoFlow-kwargs0"),
    pytest.param(SeedTcpVegasFlow, "vegas", {"max_packets": 300},
                 id="SeedTcpVegasFlow-TcpVegasFlow-kwargs1"),
    pytest.param(SeedTcpBbrFlow, "bbr", {"max_packets": 300},
                 id="SeedTcpBbrFlow-TcpBbrFlow-kwargs2"),
])
def test_classic_parity_with_seed(small_network, seed_class, controller,
                                  kwargs):
    """``TcpFlow(controller=name)`` is bit-identical to the frozen seed
    flow class of that algorithm."""
    st, sv, suna, sretx = _cwnd_trace(small_network, seed_class, **kwargs)
    nt, nv, nuna, nretx = _cwnd_trace(small_network, TcpFlow,
                                      controller=controller, **kwargs)
    assert (suna, sretx) == (nuna, nretx)
    np.testing.assert_array_equal(st, nt)
    np.testing.assert_array_equal(sv, nv)


_SITES = [
    ("Quito", 0.0, -78.5),
    ("Nairobi", -1.3, 36.8),
    ("Singapore", 1.35, 103.8),
    ("Honolulu", 21.3, -157.9),
    ("Sydney", -33.9, 151.2),
    ("Madrid", 40.4, -3.7),
]


def _service_spec() -> NetworkSpec:
    # 8x8 is the smallest lab shell where every site pair has a route.
    shell = Shell(name="X1", num_orbits=8, satellites_per_orbit=8,
                  altitude_m=600_000.0, inclination_deg=53.0)
    stations = [
        GroundStation(gid=i, name=name,
                      position=GeodeticPosition(lat, lon, 0.0))
        for i, (name, lat, lon) in enumerate(_SITES)
    ]
    network = LeoNetwork(Constellation([shell]), stations,
                         min_elevation_deg=10.0)
    rng = random.Random(17)
    requests = []
    for _ in range(16):
        src, dst = rng.sample(range(len(_SITES)), 2)
        requests.append(FlowRequest(t_start_s=rng.uniform(0.0, 6.0),
                                    src_gid=src, dst_gid=dst,
                                    size_bytes=rng.randint(20_000, 60_000)))
    # Two long transfers are mid-flight at the 5 s checkpoint, in BBR's
    # PROBE_BW cycle with populated bandwidth and RTT filters.
    requests += [FlowRequest(t_start_s=2.0, src_gid=0, dst_gid=4,
                             size_bytes=3_000_000),
                 FlowRequest(t_start_s=2.5, src_gid=2, dst_gid=5,
                             size_bytes=3_000_000)]
    return NetworkSpec.from_network(network).with_workload(
        WorkloadSchedule(requests, seed=17))


def _bbr_run(spec: NetworkSpec):
    """A packet run of ``spec``'s workload with every flow on BBR, built
    by the spawner: BBR carries the most mid-flight controller state
    (pacing rate, windowed bandwidth and RTT filters, state machine)."""
    sim = PacketSimulator(spec.build())
    metrics = MetricsRegistry()
    spawner = WorkloadSpawner(spec.workload, metrics=metrics,
                              controller="bbr").install(sim)
    return sim, spawner, metrics


def _parity_form(sim, spawner, metrics) -> str:
    report = sim.report(sim.now, registry=metrics)
    report.extras["fct"] = packet_fct_section([spawner], metrics)
    return json.dumps(report.as_dict(deterministic=True), sort_keys=True)


@pytest.mark.service
class TestLearnedControllerService:
    """A spawned workload stopped mid-flight continues bit-identically
    (class name kept for stable test ids; the learned controller it was
    written for is gone)."""

    def test_checkpoint_restore_continue_parity(self):
        """A service checkpoint restores by rebuilding the run and
        advancing it to the checkpoint's clock: stopping at 5 s with BBR
        controllers mid-flight and continuing is never stopping."""
        horizon = 10.0
        reference = _bbr_run(_service_spec())
        reference[0].run(horizon)

        interrupted = _bbr_run(_service_spec())
        interrupted[0].run(5.0)
        assert any(flow.completed_at_s is None
                   and flow.controller._mode == "probe_bw"
                   for flow in interrupted[1].flows)
        interrupted[0].run(horizon)

        assert _parity_form(*interrupted) == _parity_form(*reference)

    def test_per_controller_fct_rows(self):
        sim, spawner, metrics = _bbr_run(_service_spec())
        sim.run(10.0)
        fct = packet_fct_section([spawner], metrics)
        assert set(fct["by_controller"]) == {"bbr"}
        row = fct["by_controller"]["bbr"]
        assert row["flows_completed"] > 0
        assert row["fct_p50_s"] <= row["fct_p99_s"]
