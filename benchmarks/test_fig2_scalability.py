"""Fig. 2: simulator scalability — slowdown vs network-wide goodput.

Paper protocol (§3.4): Kuiper K1, the most populous cities as GSes, a
random permutation traffic matrix, long-running TCP flows (or line-rate
paced UDP), uniform line rates swept to control goodput.  Slowdown is
wall-clock seconds per simulated second; the paper's key finding — the
goodput alone determines the slowdown, with UDP cheaper than TCP — is what
this bench reproduces.  Absolute numbers differ (pure Python vs C++ ns-3).
"""

import time

import pytest

from repro import Hypatia, random_permutation_pairs
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.transport.tcp import TcpFlow
from repro.transport.udp import UdpFlow

from _common import scaled, write_result

#: Line rates swept (bit/s).
LINE_RATES = scaled([250_000.0, 1_000_000.0, 2_500_000.0],
                    [1_000_000.0, 10_000_000.0, 25_000_000.0,
                     100_000_000.0])
NUM_CITIES = scaled(20, 100)
VIRTUAL_SECONDS = scaled(2.0, 10.0)


def _run_workload(protocol: str, line_rate: float) -> dict:
    hypatia = Hypatia.from_shell_name("K1", num_cities=NUM_CITIES)
    pairs = random_permutation_pairs(NUM_CITIES)
    sim = PacketSimulator(
        hypatia.network,
        LinkConfig(isl_rate_bps=line_rate, gsl_rate_bps=line_rate))
    flows = []
    for src, dst in pairs:
        if protocol == "tcp":
            flows.append(TcpFlow(src, dst).install(sim))
        else:
            flows.append(UdpFlow(src, dst, rate_bps=line_rate).install(sim))
    start = time.perf_counter()
    sim.run(VIRTUAL_SECONDS)
    wall = time.perf_counter() - start
    if protocol == "tcp":
        payload = sum(flow.acked_payload_bytes for flow in flows)
    else:
        payload = sum(flow.bytes_received for flow in flows)
    goodput = payload * 8.0 / VIRTUAL_SECONDS
    perf = sim.stats.perf_summary()
    return {
        "wall_s": wall,
        "slowdown": wall / VIRTUAL_SECONDS,
        "goodput_bps": goodput,
        "events": sim.scheduler.events_processed,
        "events_per_s": perf["events_per_wall_s"],
        "routing_s": perf["routing_compute_s"],
        "trees": perf["trees_computed"],
        "csr_avoided": perf["csr_rebuilds_avoided"],
    }


@pytest.mark.parametrize("protocol", ["udp", "tcp"])
def test_fig2_slowdown_vs_goodput(protocol, benchmark):
    rows = [f"# protocol={protocol}, {NUM_CITIES} cities, "
            f"{VIRTUAL_SECONDS} virtual seconds",
            f"{'rate (Mbit/s)':>14} {'goodput (Mbit/s)':>17} "
            f"{'slowdown':>10} {'events':>10} {'events/s':>12} "
            f"{'routing_s':>10} {'trees':>7} {'csr_avoided':>11}"]
    results = []

    def sweep():
        results.clear()
        for rate in LINE_RATES:
            results.append((rate, _run_workload(protocol, rate)))
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    for rate, result in results:
        rows.append(f"{rate / 1e6:14.2f} {result['goodput_bps'] / 1e6:17.3f} "
                    f"{result['slowdown']:10.2f} {result['events']:10d} "
                    f"{result['events_per_s']:12.0f} "
                    f"{result['routing_s']:10.3f} {result['trees']:7d} "
                    f"{result['csr_avoided']:11d}")

    # Shape check: higher goodput => higher slowdown (per protocol).
    slowdowns = [r["slowdown"] for _, r in results]
    goodputs = [r["goodput_bps"] for _, r in results]
    assert goodputs == sorted(goodputs)
    assert slowdowns[-1] > slowdowns[0]
    write_result(f"fig2_scalability_{protocol}", rows)
