"""Fig. 18: Paris-Moscow RTT over time, ISLs vs bent-pipe.

Paper Appendix A: the computed (propagation) RTT of the bent-pipe path is
typically ~5 ms above the ISL path's; under a 10 Mbit/s TCP flow, queueing
inflates the TCP-estimated RTT far beyond the computed RTT in both cases.
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


@pytest.fixture(scope="module")
def studies():
    relays = relay_grid_between(GeodeticPosition(48.86, 2.35),
                                GeodeticPosition(55.76, 37.62),
                                rows=4, columns=6)
    return {
        "isl": Hypatia.from_shell_name("K1", num_cities=100),
        "bent": Hypatia.from_shell_name("K1", num_cities=100,
                                        use_isls=False,
                                        extra_stations=relays),
    }


def test_fig18_rtt_isl_vs_bent_pipe(studies, benchmark):
    holder = {}

    def run_all():
        events = 0
        for label, hypatia in studies.items():
            pair = hypatia.pair("Paris", "Moscow")
            timeline = hypatia.compute_timelines(
                [pair], duration_s=DURATION_S, step_s=1.0)[pair]
            sim = PacketSimulator(
                hypatia.network,
                LinkConfig(isl_rate_bps=RATE_BPS, gsl_rate_bps=RATE_BPS,
                           isl_queue_packets=QUEUE_PACKETS,
                           gsl_queue_packets=QUEUE_PACKETS))
            flow = TcpFlow(pair[0], pair[1]).install(sim)
            sim.run(DURATION_S)
            holder[label] = (timeline, flow)
            events += sim.scheduler.events_processed
        return events

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [f"# Paris -> Moscow, {RATE_BPS / 1e6:.0f} Mbit/s, "
            f"queue {QUEUE_PACKETS} pkts, {DURATION_S}s"]
    computed = {}
    for label in ("isl", "bent"):
        timeline, flow = holder[label]
        rtts = timeline.rtts_s
        finite = rtts[np.isfinite(rtts)]
        computed[label] = finite
        _, tcp_rtt = flow.rtt_log.as_arrays()
        rows.append(f"\n== {label} ==")
        rows.append(f"computed RTT: mean {finite.mean() * 1000:.1f} ms "
                    f"({finite.min() * 1000:.1f}-"
                    f"{finite.max() * 1000:.1f} ms)")
        rows.append(f"TCP estimated RTT: median "
                    f"{np.median(tcp_rtt) * 1000:.1f} ms, max "
                    f"{tcp_rtt.max() * 1000:.1f} ms")
        rows.append(f"goodput {flow.goodput_bps(DURATION_S) / 1e6:.2f} "
                    f"Mbit/s")

    # Shape: bent pipe's computed RTT is higher (paper: ~+5 ms typical),
    # and queueing inflates the TCP RTT well beyond the computed RTT.
    assert computed["bent"].mean() > computed["isl"].mean()
    assert computed["bent"].mean() - computed["isl"].mean() < 0.040
    for label in ("isl", "bent"):
        timeline, flow = holder[label]
        _, tcp_rtt = flow.rtt_log.as_arrays()
        assert np.median(tcp_rtt) > computed[label].mean()
    write_result("fig18_bent_pipe_rtt", rows)
