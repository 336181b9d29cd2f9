"""Fig. 4: TCP congestion-window evolution on three Kuiper K1 paths.

Paper protocol (§4.2): a single long-running TCP NewReno flow per pair with
no competing traffic; queue sized to ~1 BDP.  Expected shape: cwnd
oscillates between roughly BDP and BDP+Q; disconnections (Rio-St.P) crash
the window; and path shortenings cut the window via reordering-induced
duplicate ACKs even though nothing was lost (paper Fig. 4(c)).

Scaled run: the line rate is reduced and the queue rescaled to 1 BDP, so
the window dynamics keep the same shape in packet units.
"""

import numpy as np
import pytest

from repro import Hypatia
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.transport.tcp import TcpFlow

from _common import scaled, write_result

DURATION_S = scaled(60.0, 200.0)
RATE_BPS = scaled(2_500_000.0, 10_000_000.0)
QUEUE_PACKETS = scaled(25, 100)
EPOCH_OFFSET_S = 10.0

PAIR_NAMES = [
    ("Rio de Janeiro", "Saint Petersburg"),
    ("Manila", "Dalian"),
    ("Istanbul", "Nairobi"),
]


@pytest.fixture(scope="module")
def study():
    return Hypatia.from_shell_name("K1", num_cities=100,
                                   epoch_offset_s=EPOCH_OFFSET_S)


def test_fig4_cwnd_evolution(study, benchmark):
    pairs = [study.pair(a, b) for a, b in PAIR_NAMES]
    flows = {}

    def run_experiment():
        total_events = 0
        for pair in pairs:
            sim = PacketSimulator(
                study.network,
                LinkConfig(isl_rate_bps=RATE_BPS, gsl_rate_bps=RATE_BPS,
                           isl_queue_packets=QUEUE_PACKETS,
                           gsl_queue_packets=QUEUE_PACKETS))
            flow = TcpFlow(pair[0], pair[1]).install(sim)
            sim.run(DURATION_S)
            flows[pair] = flow
            total_events += sim.scheduler.events_processed
        return total_events

    benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    timelines = study.compute_timelines(pairs, duration_s=DURATION_S,
                                        step_s=1.0)
    rows = [f"# rate={RATE_BPS / 1e6:.1f} Mbit/s queue={QUEUE_PACKETS} pkts "
            f"duration={DURATION_S}s"]
    for (name_a, name_b), pair in zip(PAIR_NAMES, pairs):
        flow = flows[pair]
        times, cwnd = flow.cwnd_log.as_arrays()
        rtts = timelines[pair].rtts_s
        finite = rtts[np.isfinite(rtts)]
        bdp_packets = RATE_BPS * finite / (flow.packet_bytes * 8.0)
        rows.append(f"\n== {name_a} -> {name_b} ==")
        rows.append(f"BDP: {bdp_packets.min():.0f}-{bdp_packets.max():.0f} "
                    f"pkts; BDP+Q: {bdp_packets.min() + QUEUE_PACKETS:.0f}-"
                    f"{bdp_packets.max() + QUEUE_PACKETS:.0f} pkts")
        late = cwnd[times > DURATION_S * 0.2]
        rows.append(f"cwnd (post-transient): min {late.min():.0f} "
                    f"median {np.median(late):.0f} max {late.max():.0f} pkts")
        rows.append(f"fast retransmits: {flow.fast_retransmits}, "
                    f"timeouts: {flow.timeouts}, "
                    f"reordered arrivals: {flow.reordered_arrivals}")
        rows.append(f"goodput: {flow.goodput_bps(DURATION_S) / 1e6:.2f} "
                    f"Mbit/s")

    # Shape: a stable pair's cwnd sawtooth tops out near BDP+Q, and
    # window cuts happen (fast retransmits > 0) even without competing
    # traffic.
    manila_flow = flows[pairs[1]]
    times, cwnd = manila_flow.cwnd_log.as_arrays()
    late = cwnd[times > DURATION_S * 0.2]
    manila_rtt = timelines[pairs[1]].rtts_s
    bdp = RATE_BPS * np.nanmax(manila_rtt[np.isfinite(manila_rtt)]) \
        / (manila_flow.packet_bytes * 8.0)
    assert late.max() <= 2.0 * (bdp + QUEUE_PACKETS)
    assert late.max() >= 0.6 * bdp
    assert manila_flow.fast_retransmits > 0
    write_result("fig4_cwnd", rows)
