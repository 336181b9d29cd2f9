"""Fig. 19: TCP behaviour, ISLs vs bent-pipe — shared-bottleneck effects.

Paper Appendix A: with ISLs, the bottleneck is the source GS's uplink
device; with bent-pipe connectivity, the data packets and the reverse
ACKs share on-path satellite GSL devices, perturbing the window and
costing a modest amount of throughput.  Expected shape: bent-pipe goodput
is modestly lower, and its window sees more disturbance events.
"""

import numpy as np
import pytest

from repro import Hypatia
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import relay_grid_between
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.transport.tcp import TcpFlow

from _common import scaled, write_result

DURATION_S = scaled(60.0, 200.0)
RATE_BPS = 10_000_000.0
QUEUE_PACKETS = 100


def test_fig19_tcp_isl_vs_bent_pipe(benchmark):
    relays = relay_grid_between(GeodeticPosition(48.86, 2.35),
                                GeodeticPosition(55.76, 37.62),
                                rows=4, columns=6)
    studies = {
        "isl": Hypatia.from_shell_name("K1", num_cities=100),
        "bent": Hypatia.from_shell_name("K1", num_cities=100,
                                        isl_builder="none",
                                        extra_stations=relays),
    }
    holder = {}

    def run_all():
        events = 0
        for label, hypatia in studies.items():
            pair = hypatia.pair("Paris", "Moscow")
            sim = PacketSimulator(
                hypatia.network,
                LinkConfig(isl_rate_bps=RATE_BPS, gsl_rate_bps=RATE_BPS,
                           isl_queue_packets=QUEUE_PACKETS,
                           gsl_queue_packets=QUEUE_PACKETS))
            flow = TcpFlow(pair[0], pair[1]).install(sim)
            sim.run(DURATION_S)
            holder[label] = flow
            events += sim.scheduler.events_processed
        return events

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [f"# Paris -> Moscow TCP NewReno, {RATE_BPS / 1e6:.0f} Mbit/s, "
            f"{DURATION_S}s"]
    for label in ("isl", "bent"):
        flow = holder[label]
        times, cwnd = flow.cwnd_log.as_arrays()
        late = cwnd[times > DURATION_S * 0.2]
        rows.append(f"\n== {label} ==")
        rows.append(f"goodput: {flow.goodput_bps(DURATION_S) / 1e6:.2f} "
                    f"Mbit/s")
        rows.append(f"cwnd (post-transient): min {late.min():.0f} median "
                    f"{np.median(late):.0f} max {late.max():.0f} pkts")
        rows.append(f"window-cut events: fast rtx {flow.fast_retransmits}, "
                    f"timeouts {flow.timeouts}, reordered arrivals "
                    f"{flow.reordered_arrivals}")

    isl_goodput = holder["isl"].goodput_bps(DURATION_S)
    bent_goodput = holder["bent"].goodput_bps(DURATION_S)
    rows.append(f"\nbent-pipe / ISL goodput ratio: "
                f"{bent_goodput / isl_goodput:.3f} "
                f"(paper: modestly below 1)")
    # Shape: both flows move real data; bent pipe does not beat ISLs.
    assert isl_goodput > 2e6
    assert bent_goodput > 1e6
    assert bent_goodput <= isl_goodput * 1.02
    write_result("fig19_bent_pipe_tcp", rows)
