"""Extension bench: BBR vs NewReno vs Vegas on a moving LEO path.

Paper §4.2 wishes for exactly this experiment ("once a mature
implementation of BBR is available, evaluating its behavior on LEO
networks would be of high interest").  Same scenario as Fig. 5 —
Rio de Janeiro to St. Petersburg over Kuiper K1 across a path-change RTT
step — now with all three congestion controllers.

Expected shape: NewReno rides a full queue; Vegas keeps the queue empty
but its throughput falls after the RTT step and stays down; BBR keeps the
queue shallow *and* recovers — its windowed min-RTT filter expires the
stale pre-change samples, so the RTT step is absorbed instead of being
misread as congestion.
"""

import numpy as np
import pytest

from repro import Hypatia
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.transport.tcp import TcpFlow

from _common import scaled, write_result

DURATION_S = scaled(44.0, 200.0)
RATE_BPS = 10_000_000.0
QUEUE_PACKETS = 100
EPOCH_OFFSET_S = 10.0  # window with an ~+9 ms RTT step at t=26 s

FLAVORS = ["newreno", "vegas", "bbr"]


def test_extension_bbr_vs_loss_vs_delay(benchmark):
    study = Hypatia.from_shell_name("K1", num_cities=100,
                                    epoch_offset_s=EPOCH_OFFSET_S)
    pair = study.pair("Rio de Janeiro", "Saint Petersburg")
    holder = {}

    def run_all():
        events = 0
        for label in FLAVORS:
            sim = PacketSimulator(
                study.network,
                LinkConfig(isl_rate_bps=RATE_BPS, gsl_rate_bps=RATE_BPS,
                           isl_queue_packets=QUEUE_PACKETS,
                           gsl_queue_packets=QUEUE_PACKETS))
            flow = TcpFlow(pair[0], pair[1], controller=label).install(sim)
            sim.run(DURATION_S)
            holder[label] = flow
            events += sim.scheduler.events_processed
        return events

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [f"# Rio de Janeiro -> Saint Petersburg, {RATE_BPS / 1e6:.0f} "
            f"Mbit/s, {DURATION_S:.0f}s, RTT step at t=26 s",
            f"{'cc':>8} {'median RTT (ms)':>16} {'before (Mbit/s)':>16} "
            f"{'after (Mbit/s)':>15} {'overall':>8}"]
    halves = {}
    medians = {}
    for label in FLAVORS:
        flow = holder[label]
        _, rtt = flow.rtt_log.as_arrays()
        series = flow.throughput_series_bps()
        half = len(series) // 2
        before, after = series[:half].mean(), series[half:].mean()
        halves[label] = (before, after)
        medians[label] = float(np.median(rtt))
        rows.append(f"{label:>8} {np.median(rtt) * 1000:16.1f} "
                    f"{before / 1e6:16.2f} {after / 1e6:15.2f} "
                    f"{flow.goodput_bps(DURATION_S) / 1e6:8.2f}")

    # Vegas falls after the step and BBR does not (paper-motivated
    # contrast); BBR keeps the queue shallower than NewReno.
    assert halves["vegas"][1] < halves["vegas"][0]
    assert halves["bbr"][1] >= halves["bbr"][0] * 0.9
    assert medians["bbr"] < medians["newreno"]
    assert (holder["bbr"].goodput_bps(DURATION_S)
            > holder["vegas"].goodput_bps(DURATION_S))
    write_result("extension_bbr", rows)
