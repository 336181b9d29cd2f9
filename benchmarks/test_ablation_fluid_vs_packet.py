"""Ablation: fluid engine vs packet simulator — the DESIGN.md check.

The constellation-wide experiments substitute the fluid engine for the
per-packet simulator.  This bench validates the substitution where both
are affordable: a handful of long-running flows over Kuiper K1.  The
aggregate TCP goodput should approach, but not exceed, the max-min fluid
total; per-flow AIMD-fluid rates should land in the same range as per-flow
TCP goodputs.
"""

import numpy as np
import pytest

from repro import Hypatia
from repro.fluid.aimd import AimdFluidSimulation
from repro.fluid.engine import FluidFlow, FluidSimulation
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.transport.tcp import TcpFlow

from _common import scaled, write_result

RATE_BPS = scaled(2_500_000.0, 10_000_000.0)
DURATION_S = scaled(30.0, 120.0)
PAIR_NAMES = [("Madrid", "Lagos"), ("Istanbul", "Nairobi"),
              ("Manila", "Dalian"), ("Tokyo", "Seoul")]


def test_ablation_fluid_vs_packet(kuiper, benchmark):
    pairs = [kuiper.pair(a, b) for a, b in PAIR_NAMES]
    flows = [FluidFlow(src, dst) for src, dst in pairs]
    holder = {}

    def run_all():
        maxmin = FluidSimulation(kuiper.network, flows,
                                 link_capacity_bps=RATE_BPS)
        holder["maxmin"] = maxmin.run(duration_s=4.0, step_s=2.0)
        aimd = AimdFluidSimulation(kuiper.network, flows,
                                   link_capacity_bps=RATE_BPS)
        holder["aimd"] = aimd.run(duration_s=DURATION_S, step_s=1.0)
        sim = PacketSimulator(
            kuiper.network,
            LinkConfig(isl_rate_bps=RATE_BPS, gsl_rate_bps=RATE_BPS))
        tcps = [TcpFlow(src, dst).install(sim)
                for src, dst in pairs]
        sim.run(DURATION_S)
        holder["tcp"] = tcps
        return sim.scheduler.events_processed

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    maxmin_rates = holder["maxmin"].flow_rates_bps[-1]
    aimd_rates = holder["aimd"].flow_rates_bps[
        int(DURATION_S // 2):].mean(axis=0)
    tcp_rates = np.array([
        tcp.goodput_bps(DURATION_S) for tcp in holder["tcp"]
    ])

    rows = [f"# K1, {len(pairs)} flows, {RATE_BPS / 1e6:.1f} Mbit/s links",
            f"{'pair':>22} {'max-min':>9} {'AIMD-fluid':>11} "
            f"{'packet TCP':>11}  (Mbit/s)"]
    for i, (a, b) in enumerate(PAIR_NAMES):
        rows.append(f"{a + '->' + b:>22} {maxmin_rates[i] / 1e6:9.2f} "
                    f"{aimd_rates[i] / 1e6:11.2f} "
                    f"{tcp_rates[i] / 1e6:11.2f}")
    rows.append(f"{'TOTAL':>22} {maxmin_rates.sum() / 1e6:9.2f} "
                f"{aimd_rates.sum() / 1e6:11.2f} "
                f"{tcp_rates.sum() / 1e6:11.2f}")

    # Agreement.  The default-scale run is seeded and deterministic: TCP
    # delivers 0.923 of the max-min aggregate and AIMD fluid sits 1.07-1.09x
    # above packet TCP per flow, so the bands are tight enough that a
    # modelling change in either engine trips them.  The paper-scale run
    # has not been measured; it keeps the sanity envelope.
    ratio = tcp_rates.sum() / maxmin_rates.sum()
    low, high = scaled((0.90, 0.95), (0.5, 1.05))
    assert low <= ratio <= high, ratio
    flow_low, flow_high = scaled((0.9, 1.15), (0.5, 2.0))
    for aimd, tcp in zip(aimd_rates, tcp_rates):
        assert flow_low * tcp < aimd < flow_high * tcp
    write_result("ablation_fluid_vs_packet", rows)
