#!/usr/bin/env python3
"""Congestion control on a moving path: NewReno vs Vegas (paper §4.2).

Runs one loss-based and one delay-based TCP flow — each alone on the
network — from Rio de Janeiro to St. Petersburg over Kuiper K1, across a
window containing a path-change RTT step.  Prints the per-phase behavior
that makes both congestion signals unreliable on LEO paths.

Everything printed comes from the observability layer: per-packet RTT
and cwnd from the structured trace (``flow.rtt`` / ``flow.cwnd`` events),
throughput from the probe-sampled per-link series — no private simulator
plumbing.

Run:  python examples/congestion_control_study.py
"""

import numpy as np

from repro import Hypatia
from repro.obs import (FLOW_CWND, FLOW_RTT, PKT_DROP, MetricsRegistry,
                       RingBufferTracer, TraceFilter)
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.transport.tcp import TcpFlow

DURATION_S = 44.0
RATE_BPS = 10e6
QUEUE = 100


def run_flow(hypatia, pair, controller):
    tracer = RingBufferTracer(
        capacity=200_000,
        trace_filter=TraceFilter(kinds={FLOW_RTT, FLOW_CWND, PKT_DROP}))
    sim = PacketSimulator(
        hypatia.network,
        LinkConfig(isl_rate_bps=RATE_BPS, gsl_rate_bps=RATE_BPS,
                   isl_queue_packets=QUEUE, gsl_queue_packets=QUEUE),
        tracer=tracer)
    registry = MetricsRegistry()
    sim.attach_probe(registry=registry, interval_s=1.0)
    flow = TcpFlow(pair[0], pair[1], controller=controller).install(sim)
    sim.run(DURATION_S)
    return flow, tracer, registry


def describe(label, flow, tracer, registry):
    rtt = np.array([e.value for e in tracer.events_of(FLOW_RTT)])
    # The probe sampled every active device's throughput once per
    # simulated second; the busiest GSL device is the flow's bottleneck.
    gsl = registry.series_names(prefix="link.gsl-", suffix=".throughput_bps")
    busiest = max(gsl, key=lambda n: sum(registry.series_logs[n].values))
    series = np.array(registry.series_logs[busiest].values) / 1e6
    half = len(series) // 2
    print(f"\n=== {label} ===")
    print(f"per-packet RTT: min {rtt.min() * 1000:.1f} ms, "
          f"median {np.median(rtt) * 1000:.1f} ms, "
          f"max {rtt.max() * 1000:.1f} ms")
    print(f"throughput: {series[:half].mean():.2f} Mbit/s before the path "
          f"change, {series[half:].mean():.2f} Mbit/s after")
    drops = tracer.counts.get(PKT_DROP, 0)
    print(f"loss-recovery events: {flow.fast_retransmits} fast rtx, "
          f"{flow.timeouts} timeouts; reordered arrivals: "
          f"{flow.reordered_arrivals}; traced drops: {drops}")


def main() -> None:
    # Offset the epoch so the window holds ~44 s of continuous
    # connectivity with an ~9 ms RTT step at t=26 s.
    hypatia = Hypatia.from_shell_name("K1", num_cities=100,
                                      epoch_offset_s=10.0)
    pair = hypatia.pair("Rio de Janeiro", "Saint Petersburg")
    timeline = hypatia.compute_timelines([pair], duration_s=DURATION_S,
                                         step_s=1.0)[pair]
    rtts = timeline.rtts_s * 1000
    print("Computed (propagation-only) RTT over the window:")
    print(f"  t=0s: {rtts[0]:.1f} ms ... t=25s: {rtts[25]:.1f} ms ... "
          f"t=30s: {rtts[30]:.1f} ms (the path-change step)")

    describe("TCP NewReno (loss-based)",
             *run_flow(hypatia, pair, "newreno"))
    describe("TCP Vegas (delay-based)",
             *run_flow(hypatia, pair, "vegas"))

    print("\nTakeaway (paper §4.2): NewReno fills the buffer — its RTT "
          "rides ~a full queue above the path RTT — and reordering at "
          "path changes cuts its window without any loss.  Vegas keeps "
          "the queue empty but misreads the path-change RTT increase as "
          "congestion and its throughput drops and stays low.")


if __name__ == "__main__":
    main()
