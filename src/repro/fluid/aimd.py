"""Fluid AIMD: TCP-like rate dynamics at flow granularity.

The max-min engine (:mod:`repro.fluid.engine`) computes the *equilibrium*
fair shares — by construction it leaves zero unused capacity on every
flow's bottleneck.  But paper Fig. 10 measures precisely the
*disequilibrium*: after satellite motion reshuffles which flows share a
link, real TCP needs many RTTs of additive increase to claim freed
capacity, and overshoots into multiplicative decrease when a link becomes
newly shared.  This module models those dynamics in fluid form:

* each flow holds a rate ``r_f``;
* each device holds a virtual drop-tail backlog: overload builds it up,
  spare capacity drains it, and while it is non-empty the device transmits
  at full capacity (this is why the paper's *static* baseline shows almost
  no unused bandwidth: the 1-BDP queue keeps the bottleneck busy straight
  through TCP's sawtooth);
* flows halve their rate when an on-path backlog overflows (multiplicative
  decrease, at most once per RTT), and otherwise climb at the AIMD slope
  of one MSS per RTT per RTT;
* a flow whose path *changes* also halves: the paper's §4.2 finding is
  that path shortening reorders packets, the duplicate ACKs are read as
  loss, and the window is cut with no drop at all (Fig. 4(c)); a flow that
  reconnects after disconnection restarts from the floor (slow-start
  restart after an RTO burst);
* paths follow the shortest-path schedule, so cross-traffic shifts exactly
  as in the packet model — and freed links stay underused for the many
  seconds additive increase needs to reclaim them (Fig. 10's effect).

Slight per-flow desynchronization of the additive slope avoids the
lockstep halving a perfectly symmetric fluid model would produce.

The engine models long-running flows only (paper Fig. 10 and the
fluid-vs-packet ablation): a workload of arrivals and finite transfers
runs on the max-min engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import spans
from ..topology.network import LeoNetwork
from .engine import (ClassPaths, FluidFlow, FluidRunState, FluidSimulation,
                     first_appearance_columns, no_flows, table_devices)

__all__ = ["AimdFluidSimulation", "AimdRunState"]

#: Representative RTT of the AIMD slope and the decrease holdoff (paper
#: scenario: ~100 ms).
RTT_ESTIMATE_S = 0.1

#: Segment size of the additive-increase slope.
MSS_BYTES = 1500

#: Each device's drop-tail queue: 100 segments.
QUEUE_BITS = 100 * MSS_BYTES * 8.0

#: Minimum sending rate: one MSS per RTT (nominal).
FLOOR_BPS = MSS_BYTES * 8.0 / RTT_ESTIMATE_S


@dataclass
class AimdRunState(FluidRunState):
    """A :class:`FluidRunState` plus what AIMD carries between steps.

    Attributes:
        send_rates: (F,) current sending rate of each flow.
        last_decrease: (F,) time of each flow's last multiplicative decrease.
        previous_sat_sets: Per-flow satellites of the previous path.
        backlog_codes / backlog_bits: The non-empty drop-tail backlogs as
            parallel (device code, bits) arrays, in column order.
    """

    send_rates: np.ndarray = no_flows()
    last_decrease: np.ndarray = no_flows()
    previous_sat_sets: List[Optional[frozenset]] = field(default_factory=list)
    backlog_codes: np.ndarray = no_flows(np.int64)
    backlog_bits: np.ndarray = no_flows()


class AimdFluidSimulation(FluidSimulation):
    """TCP-like AIMD rate evolution over shifting shortest paths.

    Supplies only the per-snapshot dynamics to the inherited snapshot
    loop.  Every flow is long-running and active from t = 0.

    Args:
        network: The LEO network.
        flows: Long-running flows (demands cap their rates).
        link_capacity_bps: Uniform device capacity (paper: 10 Mbit/s).
        freeze_topology_at_s: If set, routes are frozen at this time — the
            "static network" baseline (gray line of Fig. 10).

    Raises:
        ValueError: A flow starts after t = 0 or has a finite size (run
            such a workload on the max-min engine).
    """

    ENGINE = "aimd"
    KERNEL = ""
    STATE = AimdRunState

    def __init__(self, network: LeoNetwork, flows: Sequence[FluidFlow],
                 link_capacity_bps: float = 10_000_000.0,
                 freeze_topology_at_s: Optional[float] = None) -> None:
        _refuse_workload(flows)
        super().__init__(network, flows, link_capacity_bps,
                         freeze_topology_at_s)
        from ..simulation.positions import PositionService
        self._positions = PositionService(network, quantum_s=0.1)

    def extend_flows(self, state: AimdRunState,
                     flows: Sequence[FluidFlow]) -> int:
        _refuse_workload(flows)
        first = super().extend_flows(state, flows)
        count = len(self.flows) - first

        def grown(array: np.ndarray, fill: float) -> np.ndarray:
            return np.concatenate([array, np.full(count, fill)])

        # Start every flow at its fair-share guess: capacity split by a
        # nominal contention of 2 (flows converge within a few steps).
        state.send_rates = grown(state.send_rates,
                                 self.link_capacity_bps / 2.0)
        state.last_decrease = grown(state.last_decrease, -np.inf)
        state.previous_sat_sets.extend([None] * count)
        return first

    def _step(self, state: AimdRunState, t_index: int, time_s: float,
              step: ClassPaths, faults) -> None:
        """One snapshot step: ``substeps`` RTT-granularity AIMD updates
        over the step's flat (flow, device) incidence."""
        num_flows = len(state.starts)
        flow_rows = step.flow_rows(num_flows)
        capacity = self.link_capacity_bps
        rates, last_decrease = state.send_rates, state.last_decrease
        # Invariant per-flow rate ceiling (demand- and capacity-capped).
        rate_cap = np.minimum(capacity, state.demand_caps)
        # AIMD and queue dynamics integrate at RTT granularity; paths only
        # change at the (coarser) snapshot step.
        substeps = max(1, round(
            state.step_s / min(state.step_s, RTT_ESTIMATE_S)))
        dt = state.step_s / substeps
        # Per-flow RTT from the current path geometry (propagation plus
        # a half-full bottleneck queue) drives each flow's AIMD slope:
        # long paths reclaim bandwidth slowly, exactly the paper's
        # "transport is often unable to use the available bandwidth".
        # A path that changed satellites also halves the rate: the
        # reordering-induced decrease of paper §4.2.
        flow_rtt = np.full(num_flows, RTT_ESTIMATE_S)
        row_paths = step.paths + [None]  # the extra row: off the candidates
        row_cache: Dict[int, Tuple[float, frozenset]] = {}
        # Every lookup of a step shares time_s and paths share satellites:
        # propagate each node once per step.
        position: Dict[int, Tuple[float, float, float]] = {}
        for i, row in enumerate(flow_rows.tolist()):
            path = row_paths[row]
            if path is None:
                state.previous_sat_sets[i] = None
                continue
            cached = row_cache.get(row)
            if cached is None:
                for node in path:
                    if node not in position:
                        position[node] = self._positions.position_m(
                            node, time_s)
                distance = 0.0
                for a, b in zip(path, path[1:]):
                    (ax, ay, az), (bx, by, bz) = position[a], position[b]
                    distance += math.sqrt(
                        (ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2)
                propagation_rtt = 2.0 * distance / 299_792_458.0
                queueing = 0.5 * QUEUE_BITS / capacity
                cached = row_cache[row] = (
                    max(propagation_rtt + queueing, 1e-3),
                    frozenset(n for n in path if n < self._num_sats))
            flow_rtt[i], sat_set = cached
            previous = state.previous_sat_sets[i]
            if previous is not None and sat_set != previous:
                rates[i] = max(rates[i] / 2.0, FLOOR_BPS)
                last_decrease[i] = time_s
            state.previous_sat_sets[i] = sat_set
        # Flat per-step device incidence: one entry per (flow, device)
        # traversal in flow-major path order — each flow's row of the
        # class codes, gathered — devices compacted to integer columns
        # exactly as the max-min engine's matrix build does; devices
        # that only hold backlog take the columns after.  Every sub-step
        # below is array arithmetic over these entries.
        num_nodes = self.network.num_nodes
        row_codes, row_hops = table_devices(step.table, step.counts,
                                            self._num_sats, num_nodes)
        row_start = np.zeros(row_hops.size + 1, dtype=np.int64)
        np.cumsum(row_hops, out=row_start[1:])
        hop_counts = np.append(row_hops, 0)[flow_rows]
        flow_start = np.cumsum(hop_counts) - hop_counts
        codes = row_codes[np.repeat(row_start[flow_rows] - flow_start,
                                    hop_counts)
                          + np.arange(int(hop_counts.sum()))]
        columns, dev_codes, dev_keys = first_appearance_columns(
            np.concatenate([codes, state.backlog_codes]), step.devices)
        ent_flow = np.repeat(np.arange(num_flows), hop_counts)
        ent_col = columns[:codes.size]
        num_devs = dev_codes.size
        backlog = np.zeros(num_devs)
        backlog[columns[codes.size:]] = state.backlog_bits
        dev_cap_dt = np.full(num_devs, capacity * dt)
        if faults is not None:  # effective capacities, snapshot granularity
            dev_cap_dt = dt * self._device_capacities(dev_keys, faults,
                                                      time_s)
        served_bits_arr = np.zeros(num_devs)
        touched = np.zeros(num_devs, dtype=bool)
        has_dev = hop_counts > 0
        # Mild desynchronization of the additive slopes (+/-5%): drop-tail
        # queues substantially synchronize co-bottlenecked flows (the
        # classic global-synchronization effect), and that synchronization
        # is part of why utilization dips after loss events.
        slope_jitter = 1.0 + 0.1 * (
            (np.arange(num_flows) * 2654435761 % 1000) / 999.0 - 0.5)
        # One MSS per RTT per RTT, at each flow's RTT (hoisted:
        # flow_rtt only changes at snapshot granularity).
        increase_dt = (MSS_BYTES * 8.0 / flow_rtt ** 2
                       * slope_jitter * dt)
        with spans.span("fluid.aimd.substeps"):
            for sub in range(substeps):
                sub_time = time_s + sub * dt
                # Offered load per device from current rates.
                loads = np.zeros(num_devs)
                np.add.at(loads, ent_col, rates[ent_flow])
                loaded = np.zeros(num_devs, dtype=bool)
                loaded[ent_col] = True
                touched |= loaded | (backlog > 0.0)
                # Virtual drop-tail queues: overload builds backlog, spare
                # capacity drains it; hitting the cap signals drops.
                # Devices no flow uses anymore (zero load) still drain.
                arriving = backlog + loads * dt
                served = np.minimum(dev_cap_dt, arriving)
                leftover = arriving - served
                overflow = loaded & (leftover > QUEUE_BITS)
                backlog = np.minimum(leftover, QUEUE_BITS)
                served_bits_arr += served
                # AIMD reaction of every connected flow.
                rates[~has_dev] = FLOOR_BPS  # restart on reconnection
                drop_hit = np.zeros(num_flows, dtype=bool)
                drop_hit[ent_flow[overflow[ent_col]]] = True
                decrease = (has_dev & drop_hit
                            & (sub_time - last_decrease >= flow_rtt))
                rates[decrease] = np.maximum(rates[decrease] / 2.0,
                                             FLOOR_BPS)
                last_decrease[decrease] = sub_time
                grow = has_dev & ~decrease
                rates[grow] += increase_dt[grow]
                rates[has_dev] = np.minimum(rates[has_dev], rate_cap[has_dev])
        held = np.flatnonzero(backlog > 0.0)
        state.backlog_codes = dev_codes[held]
        state.backlog_bits = backlog[held]
        # Utilization over the step is what a 1 s monitor would report.
        utilization = {dev_keys[j]: float(served_bits_arr[j]) / state.step_s
                       for j in np.flatnonzero(touched)}
        state.rates[t_index] = np.where(has_dev, rates, 0.0)
        self._record_snapshot(state, t_index, time_s, step, utilization,
                              active_count=num_flows)


def _refuse_workload(flows: Sequence[FluidFlow]) -> None:
    """Refuse a flow that is not long-running from t = 0."""
    for flow in flows:
        if flow.start_s > 0.0 or flow.size_bytes is not None:
            raise ValueError(
                f"the AIMD engine runs long-running flows from t = 0 "
                f"only; {flow} arrives late or is finite: run it on the "
                f"max-min engine (FluidSimulation)")
