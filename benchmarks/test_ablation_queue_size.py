"""Ablation: queue size in BDP multiples — latency/throughput trade-off.

The paper sizes queues at ~1 BDP (§4.1).  This ablation sweeps the queue
on a stable Kuiper path: larger buffers raise TCP's worst-case RTT roughly
linearly (bufferbloat) while goodput saturates around 1 BDP.
"""

import numpy as np
import pytest

from repro import Hypatia
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.transport.tcp import TcpFlow

from _common import scaled, write_result

RATE_BPS = scaled(2_500_000.0, 10_000_000.0)
DURATION_S = scaled(30.0, 120.0)
#: Queue sizes as multiples of a ~100 ms BDP.
BDP_MULTIPLES = [0.25, 0.5, 1.0, 2.0, 4.0]


def test_ablation_queue_size(benchmark):
    hypatia = Hypatia.from_shell_name("K1", num_cities=100)
    pair = hypatia.pair("Istanbul", "Nairobi")
    bdp_packets = max(2, int(RATE_BPS * 0.1 / (1500 * 8)))
    holder = {}

    def sweep():
        for multiple in BDP_MULTIPLES:
            queue = max(1, int(bdp_packets * multiple))
            sim = PacketSimulator(
                hypatia.network,
                LinkConfig(isl_rate_bps=RATE_BPS, gsl_rate_bps=RATE_BPS,
                           isl_queue_packets=queue,
                           gsl_queue_packets=queue))
            flow = TcpFlow(pair[0], pair[1]).install(sim)
            sim.run(DURATION_S)
            holder[multiple] = (queue, flow)
        return len(holder)

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [f"# Istanbul -> Nairobi, {RATE_BPS / 1e6:.1f} Mbit/s, "
            f"1 BDP ~ {bdp_packets} pkts, {DURATION_S}s",
            f"{'queue (xBDP)':>13} {'pkts':>6} {'goodput (Mbit/s)':>17} "
            f"{'max RTT (ms)':>13}"]
    goodputs = []
    max_rtts = []
    for multiple in BDP_MULTIPLES:
        queue, flow = holder[multiple]
        goodput = flow.goodput_bps(DURATION_S)
        _, rtts = flow.rtt_log.as_arrays()
        goodputs.append(goodput)
        max_rtts.append(rtts.max())
        rows.append(f"{multiple:13.2f} {queue:6d} {goodput / 1e6:17.2f} "
                    f"{rtts.max() * 1000:13.1f}")

    # Bufferbloat: deeper buffers -> higher worst-case RTT.
    assert max_rtts[-1] > max_rtts[0]
    # Throughput saturates: >= 1 BDP of buffer recovers most goodput.
    assert goodputs[2] > 0.8 * goodputs[-1]
    # Tiny buffers lose throughput relative to 1 BDP.
    assert goodputs[0] <= goodputs[2] * 1.02
    write_result("ablation_queue_size", rows)
