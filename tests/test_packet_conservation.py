"""Packet conservation, per flow and per device, on traced packet runs.

The fixed run is the cc lab's ``faulty-storm-heavy`` scenario:
stochastic uplink loss on two stations, one ISL cut, storms over about
half the sites and heavy churn into 25-packet queues.  It is stopped
while traffic is still live, so every term of the books is in play.
The same books are then kept on random Walker constellations with
random stations, faults, queues and workloads (hypothesis):

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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.lab import (FORWARDING_INTERVAL_S, GSL_QUEUE_PACKETS,
                          ISL_QUEUE_PACKETS, build_scenarios, lab_network)
from repro.faults import FaultEvent, FaultSchedule
from repro.obs.trace import (PKT_DELIVER, PKT_DROP, PKT_ENQUEUE,
                             PKT_TX_FINISH, RingBufferTracer)
from repro.simulation.devices import LinkDevice
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.topology.network import LeoNetwork
from repro.traffic import FlowRequest, WorkloadSchedule
from repro.traffic.spawner import WorkloadSpawner

from test_property_based import _walker_network

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
                    controller="newreno").install(sim)
    return sim, tracer, _run_counting_sends(sim, tracer, STOP_S)


def _run_counting_sends(sim, tracer, stop_s):
    """Run ``sim`` to ``stop_s``, counting per flow every packet the
    endpoints hand to ``PacketSimulator.send``."""
    sent = Counter()
    send = sim.send

    def counting_send(packet):
        sent[packet.flow_id] += 1
        send(packet)

    sim.send = counting_send
    sim.run(stop_s)
    assert tracer.evicted == 0, "the trace ring overflowed"
    return sent


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
    _assert_flow_books(*traced_cell)


def test_per_device_conservation(traced_cell):
    """Every device transmitted or holds each packet it accepted, its
    own counters match the trace, and the devices together were offered
    every packet the network layer forwarded."""
    sim, tracer, _ = traced_cell
    _assert_device_books(sim, tracer)


def _assert_flow_books(sim, tracer, sent):
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


def _assert_device_books(sim, tracer):
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


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conservation_on_random_networks(data):
    """Both books balance on a random 1-3-shell Walker constellation
    with random stations, a random fault schedule (outages, ISL and GSL
    cuts, rain, uplink loss), random queues and a random NewReno
    workload, stopped at a random instant."""
    healthy, sites, min_elevation_deg = _walker_network(data)
    stop_s = data.draw(st.floats(0.2, 1.5))
    gids = st.integers(0, len(sites) - 1)

    def window():
        start = data.draw(st.floats(0.0, stop_s))
        return start, start + data.draw(st.floats(1e-3, stop_s))

    satellites = st.integers(0, healthy.num_satellites - 1)
    grid = healthy.isl_pairs.tolist()
    events = [FaultEvent.satellite_outage(data.draw(satellites), *window())
              for _ in range(data.draw(st.integers(0, 4)))]
    events += [FaultEvent.isl_cut(*data.draw(st.sampled_from(grid)),
                                  *window())
               for _ in range(data.draw(st.integers(0, 4)) if grid else 0)]
    events += [FaultEvent.gsl_cut(data.draw(gids), *window())
               for _ in range(data.draw(st.integers(0, 1)))]
    events += [FaultEvent.gsl_attenuation(data.draw(gids), *window(),
                                          data.draw(st.floats(0.5, 30.0)))
               for _ in range(data.draw(st.integers(0, 2)))]
    events += [FaultEvent.packet_loss(*window(),
                                      data.draw(st.floats(0.01, 1.0)),
                                      data.draw(gids))
               for _ in range(data.draw(st.integers(0, 2)))]
    network = LeoNetwork(
        healthy.constellation, healthy.ground_stations,
        min_elevation_deg=min_elevation_deg,
        faults=FaultSchedule(events, seed=data.draw(st.integers(0, 99))))

    requests = []
    for _ in range(data.draw(st.integers(1, 8))):
        src = data.draw(gids)
        dst = data.draw(gids.filter(lambda gid: gid != src))
        requests.append(FlowRequest(
            t_start_s=data.draw(st.floats(0.0, stop_s)), src_gid=src,
            dst_gid=dst, size_bytes=data.draw(st.integers(1, 400_000))))
    rate_bps = data.draw(st.floats(1e6, 1e7))
    tracer = RingBufferTracer(capacity=1_000_000)
    sim = PacketSimulator(
        network,
        link_config=LinkConfig(
            isl_rate_bps=rate_bps, gsl_rate_bps=rate_bps,
            isl_queue_packets=data.draw(st.integers(1, 30)),
            gsl_queue_packets=data.draw(st.integers(1, 30))),
        tracer=tracer)
    WorkloadSpawner(WorkloadSchedule(requests),
                    controller="newreno").install(sim)
    sent = _run_counting_sends(sim, tracer, stop_s)
    _assert_flow_books(sim, tracer, sent)
    _assert_device_books(sim, tracer)
