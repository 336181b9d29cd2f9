"""Congestion-control plug-in API tests (repro.cc).

The heavyweight bit-identity gate (full anchor scenarios, every classic)
lives in ``benchmarks/test_cc_matrix.py``; here we prove the API
semantics — registry, estimator arithmetic, state dicts, the controller
inspection surface —
plus one light parity run per classic against the frozen seed classes in
``tests/_seed_transport.py``.
"""

import numpy as np
import pytest

from repro.cc.api import (RTO_INITIAL_S, RTO_MAX_S, RTO_MIN_S,
                          CongestionController, RttEstimator,
                          controller_names, make_controller,
                          register_controller, resolve_controller)
from repro.cc.classic import BbrController, NewRenoController, VegasController
from repro.cc.learned import BanditBrain, BanditController
from repro.simulation.simulator import LinkConfig, PacketSimulator
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

    def test_state_roundtrip(self):
        est = RttEstimator()
        est.observe(0.25)
        est.backoff()
        clone = RttEstimator()
        clone.load_state_dict(est.state_dict())
        assert (clone.srtt, clone.rttvar, clone.rto) == \
            (est.srtt, est.rttvar, est.rto)


class TestRegistry:
    def test_classics_and_learned_registered(self):
        names = controller_names()
        for expected in ("newreno", "vegas", "bbr", "bandit"):
            assert expected in names

    def test_reregister_same_factory_is_noop(self):
        register_controller("newreno", NewRenoController)

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ValueError, match="already taken"):
            register_controller("newreno", VegasController)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown congestion"):
            make_controller("no-such-controller")

    def test_make_controller_passes_kwargs(self):
        ctrl = make_controller("vegas", alpha=3, beta=5)
        assert (ctrl.alpha, ctrl.beta) == (3, 5)

    def test_resolve_default_is_newreno(self):
        assert isinstance(resolve_controller(None), NewRenoController)

    def test_resolve_instance_passthrough(self):
        ctrl = BbrController()
        assert resolve_controller(ctrl) is ctrl

    def test_resolve_bad_type(self):
        with pytest.raises(TypeError):
            resolve_controller(42)

    def test_double_attach_rejected(self, small_network):
        sim = PacketSimulator(small_network)
        flow = TcpFlow(0, 3, controller="newreno").install(sim)
        with pytest.raises(RuntimeError, match="already attached"):
            flow.controller.attach(flow)


class TestStateDicts:
    def test_classic_state_roundtrips(self, small_network):
        sim = PacketSimulator(small_network)
        flow = TcpFlow(0, 3, max_packets=50, controller="vegas").install(sim)
        sim.run(4.0)
        state = flow.controller.state_dict()
        assert "flow" not in state
        clone = VegasController()
        clone.load_state_dict(state)
        assert clone.state_dict() == state

    def test_bbr_deques_json_expressible(self, small_network):
        import json
        sim = PacketSimulator(small_network)
        flow = TcpFlow(0, 3, max_packets=80, controller="bbr").install(sim)
        sim.run(4.0)
        state = flow.controller.state_dict()
        json.dumps(state)  # filters were deques of tuples: must serialize
        clone = BbrController()
        clone.load_state_dict(state)
        assert clone.state_dict() == state
        assert clone.btl_bw_bps == flow.controller.btl_bw_bps

    def test_bandit_shares_brain_and_roundtrips(self):
        shared = BanditController.make_shared_state()
        a = BanditController(**shared)
        b = BanditController(**shared)
        assert a.brain is b.brain
        a.brain.update(1, 2.5)
        state = a.state_dict()
        assert state["brain"]["totals"][1] == 2.5
        clone = BanditController()
        clone.load_state_dict(state)
        assert clone.brain.totals == a.brain.totals


class TestShimSurface:
    """What the removed per-algorithm flow classes exposed, read through
    ``TcpFlow(controller=...)`` (class name kept for stable test ids)."""

    def test_controller_names(self, small_network):
        sim = PacketSimulator(small_network)
        assert TcpFlow(0, 3).install(sim).controller_name == "newreno"
        for gid, name in ((4, "vegas"), (5, "bbr")):
            flow = TcpFlow(0, gid, controller=name).install(sim)
            assert flow.controller_name == name

    def test_vegas_parameters_delegate(self, small_network):
        sim = PacketSimulator(small_network)
        vegas = make_controller("vegas", alpha=3, beta=6, gamma=2)
        flow = TcpFlow(0, 3, controller=vegas).install(sim)
        assert flow.controller is vegas
        assert (vegas.alpha, vegas.beta, vegas.gamma) == (3, 6, 2)

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
    pytest.param(SeedTcpBbrFlow, "bbr",
                 {"max_packets": 300, "delayed_ack_count": 2},
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
