"""Packet conservation, per flow and per device, on a traced lab cell.

The run is the cc lab's ``faulty-storm-heavy`` scenario: stochastic
uplink loss on two stations, one ISL cut, storms over about half the
sites and heavy churn into 25-packet queues.  It is stopped while
traffic is still live, so every term of the books is in play:

* per flow, every packet the endpoints hand to ``PacketSimulator.send``
  is delivered, dropped for a named reason, waiting in (or being
  serialized by) a device, or propagating to the next node; and each
  hop it was accepted for is transmitted or still held by the device;
* per device, every packet offered is transmitted, dropped or held.

The sent count is taken at ``send`` itself and the held/propagating
counts from the simulator's queues and pending events, so the trace's
``PKT_ENQUEUE`` / ``PKT_DROP`` / ``PKT_DELIVER`` / ``PKT_TX_FINISH``
records are checked against state they do not come from.
"""

from collections import Counter

import pytest

from repro.cc.factory import ControllerFlowFactory
from repro.cc.lab import (FORWARDING_INTERVAL_S, GSL_QUEUE_PACKETS,
                          ISL_QUEUE_PACKETS, build_scenarios, lab_network)
from repro.obs.trace import (PKT_DELIVER, PKT_DROP, PKT_ENQUEUE,
                             PKT_TX_FINISH, RingBufferTracer)
from repro.simulation.devices import LinkDevice
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.traffic.spawner import WorkloadSpawner

#: Scenario length (s); the run stops at :data:`STOP_S`, inside the ISL
#: cut (``duration / 3`` to ``2 duration / 3``) and the uplink-loss window
#: (``0.2 duration`` to ``0.9 duration``), with flows still arriving.
DURATION_S = 6.0
STOP_S = 3.6


@pytest.fixture(scope="module")
def traced_cell():
    """The stopped run, its trace, and the per-flow sent counts."""
    (scenario,) = [s for s in build_scenarios(lab_network(),
                                              duration_s=DURATION_S, seed=7)
                   if s.name == "faulty-storm-heavy"]
    tracer = RingBufferTracer(capacity=4_000_000)
    sim = PacketSimulator(
        scenario.spec.build(),
        link_config=LinkConfig(gsl_queue_packets=GSL_QUEUE_PACKETS,
                               isl_queue_packets=ISL_QUEUE_PACKETS),
        forwarding_interval_s=FORWARDING_INTERVAL_S, tracer=tracer)
    WorkloadSpawner(scenario.spec.workload,
                    flow_factory=ControllerFlowFactory("newreno")
                    ).install(sim)
    sent = Counter()
    send = sim.send

    def counting_send(packet):
        sent[packet.flow_id] += 1
        send(packet)

    sim.send = counting_send
    sim.run(STOP_S)
    assert tracer.evicted == 0, "the trace ring overflowed"
    return sim, tracer, sent


def _held_and_propagating(sim):
    """Per flow and per device: packets a device holds (queued or being
    serialized) and, per flow, packets propagating to their next node."""
    held_by_flow, held_by_link = Counter(), Counter()
    propagating = Counter()
    for device in sim.iter_devices():
        for packet, _ in device._queue:
            held_by_flow[packet.flow_id] += 1
            held_by_link[device.name] += 1
    for _, _, fn, packet, _ in sim.scheduler._queue:
        if getattr(fn, "__func__", None) is LinkDevice._finish_transmission:
            held_by_flow[packet.flow_id] += 1
            held_by_link[fn.__self__.name] += 1
        elif fn == sim._receive:
            propagating[packet.flow_id] += 1
    return held_by_flow, held_by_link, propagating


def test_the_cell_exercises_every_term(traced_cell):
    sim, tracer, sent = traced_cell
    reasons = Counter(event.reason for event in tracer.events_of(PKT_DROP))
    assert reasons["fault"] > 0 and reasons["queue"] > 0
    assert sim.network.faults.cut_isls_at(STOP_S)
    held, _, propagating = _held_and_propagating(sim)
    assert sum(held.values()) > 0 and sum(propagating.values()) > 0
    assert len(sent) > 10


def test_per_flow_conservation(traced_cell):
    """sent = delivered + drops by reason + held + propagating, and
    hops accepted = hops transmitted + held, for every flow."""
    sim, tracer, sent = traced_cell
    delivered = Counter(e.flow for e in tracer.events_of(PKT_DELIVER))
    drops = Counter((e.flow, e.reason) for e in tracer.events_of(PKT_DROP))
    enqueued = Counter(e.flow for e in tracer.events_of(PKT_ENQUEUE))
    transmitted = Counter(e.flow for e in tracer.events_of(PKT_TX_FINISH))
    held, _, propagating = _held_and_propagating(sim)
    reasons = {reason for _, reason in drops}
    flows = set(sent) | set(delivered) | {flow for flow, _ in drops}
    assert flows == set(sent), "a packet appeared that no endpoint sent"
    for flow in sorted(flows):
        accounted = (delivered[flow]
                     + sum(drops[flow, reason] for reason in reasons)
                     + held[flow] + propagating[flow])
        assert sent[flow] == accounted, (
            f"flow {flow}: sent {sent[flow]}, delivered {delivered[flow]}, "
            f"drops { {r: drops[flow, r] for r in reasons} }, "
            f"held {held[flow]}, propagating {propagating[flow]}")
        assert enqueued[flow] == transmitted[flow] + held[flow], flow


def test_per_device_conservation(traced_cell):
    """Every device transmitted or holds each packet it accepted, its
    own counters match the trace, and the devices together were offered
    every packet the network layer forwarded."""
    sim, tracer, _ = traced_cell
    enqueued = Counter(e.link for e in tracer.events_of(PKT_ENQUEUE))
    transmitted = Counter(e.link for e in tracer.events_of(PKT_TX_FINISH))
    dropped = Counter(e.link for e in tracer.events_of(PKT_DROP) if e.link)
    _, held, _ = _held_and_propagating(sim)
    for device in sim.iter_devices():
        name = device.name
        assert enqueued[name] == transmitted[name] + held[name], name
        assert device.stats.packets_sent == transmitted[name], name
        assert (device.stats.packets_dropped
                + device.stats.packets_dropped_fault) == dropped[name], name
    assert (sum(enqueued.values()) + sum(dropped.values())
            == sim.stats.packets_forwarded)
