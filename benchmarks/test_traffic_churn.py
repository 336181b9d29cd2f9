"""Traffic-churn gate: 1000 finite flows arriving and completing on S1.

The workload subsystem's scale check: a gravity-model arrival process
drives ~1000 finite flows through the max-min fluid engine on the
Starlink S1 shell with 100 city ground stations.  The engine re-solves
the allocation at every arrival/completion, so this exercises the
dynamic sub-event path end to end, then asserts the churn actually
converges: nearly every flow completes within the horizon and the
delivered volume matches the offered volume.

The engine's re-solves are driven by events (a kept active set, one
start-sorted arrival list per step, scalars over the active flows).  The
same churn through ``tests/_fluid_oracle.py``'s rescanning loop — every
sub-event re-reads all of the step's candidates — must give the same
result bit for bit, with the same number of solves; both loops' step
time per solve goes to ``results/traffic_churn.txt``.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.fluid.engine import FluidSimulation
from repro.traffic import FlowArrivalProcess, TrafficMatrix

from _common import format_cdf_summary, scaled, write_result
from _fluid_oracle import RescanningFluidSimulation

pytestmark = pytest.mark.traffic

#: Arrival window; the run extends past it so the tail drains.
ARRIVAL_WINDOW_S = scaled(60.0, 300.0)
DURATION_S = scaled(120.0, 420.0)
STEP_S = scaled(15.0, 10.0)
TARGET_FLOWS = scaled(1000, 5000)
MEAN_SIZE_BYTES = 1e6
RATE_BPS = 1e9
SEED = 7


def _workload():
    # Aggregate load chosen so the expected flow count hits the target:
    # E[flows] = duration * load / (8 * mean_size).
    load_bps = TARGET_FLOWS * 8.0 * MEAN_SIZE_BYTES / ARRIVAL_WINDOW_S
    matrix = TrafficMatrix.gravity(count=100, total_offered_bps=load_bps)
    return FlowArrivalProcess(matrix, mean_size_bytes=MEAN_SIZE_BYTES,
                              seed=SEED).generate(ARRIVAL_WINDOW_S)


def _timed_run(engine, network, flows):
    """``(result, seconds spent in the engine's _step)`` of one run."""
    spent = [0.0]

    class Timed(engine):
        def _step(self, *args):
            started = time.perf_counter()
            super()._step(*args)
            spent[0] += time.perf_counter() - started

    result = Timed(network, flows, link_capacity_bps=RATE_BPS).run(
        duration_s=DURATION_S, step_s=STEP_S)
    return result, spent[0]


def test_traffic_churn(starlink, benchmark):
    workload = _workload()
    assert workload.num_flows > 0.8 * TARGET_FLOWS
    holder = {}

    def run():
        holder["result"], holder["step_s"] = _timed_run(
            FluidSimulation, starlink.network, workload.as_fluid_flows())
        return holder["result"].perf["allocations_solved"]

    benchmark.pedantic(run, rounds=1, iterations=1)

    result = holder["result"]
    reference, reference_step_s = _timed_run(
        RescanningFluidSimulation, starlink.network,
        workload.as_fluid_flows())
    solves = result.perf["allocations_solved"]
    summary = result.perf_summary()
    fcts = result.fct_values()

    rows = [f"# S1, {workload.num_flows} finite flows over "
            f"{ARRIVAL_WINDOW_S:.0f}s, {RATE_BPS / 1e9:.1f} Gbit/s links",
            f"allocations solved: {result.perf['allocations_solved']:.0f} "
            f"({len(result.times_s)} snapshots)",
            f"flows completed: {len(fcts)}/{workload.num_flows}",
            f"offered: {summary['offered_load_bps'] / 1e6:.1f} Mbit/s, "
            f"delivered: {summary['delivered_load_bps'] / 1e6:.1f} Mbit/s",
            f"step time per solve: event-driven "
            f"{holder['step_s'] / solves * 1e6:.0f} us, rescanning "
            f"{reference_step_s / solves * 1e6:.0f} us"]
    rows += format_cdf_summary("fct", fcts, unit="s")
    write_result("traffic_churn", rows)

    # The event-driven loop is the rescanning one, bit for bit.
    assert reference.perf["allocations_solved"] == solves
    for name in ("flow_rates_bps", "flow_fct_s", "flow_delivered_bits"):
        assert np.array_equal(getattr(result, name), getattr(reference, name),
                              equal_nan=True), name
    assert result.flow_paths == reference.flow_paths
    assert ([list(loads.items()) for loads in result.device_load_bps]
            == [list(loads.items()) for loads in reference.device_load_bps])

    # The gate: churn converges.  The engine re-solved at (at least)
    # every arrival, nearly every flow completed inside the horizon, and
    # the books balance.
    assert result.perf["allocations_solved"] >= workload.num_flows
    assert len(fcts) >= 0.95 * workload.num_flows
    finite = np.isfinite(result.flow_fct_s)
    np.testing.assert_allclose(result.flow_delivered_bits[finite],
                               result.flow_offered_bits[finite])
    assert (fcts > 0.0).all()
