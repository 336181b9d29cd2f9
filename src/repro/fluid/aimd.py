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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import spans
from ..obs.metrics import MetricsRegistry
from ..topology.network import LeoNetwork
from .engine import (FluidFlow, FluidRunState, FluidSimulation,
                     decode_device, first_appearance_columns,
                     flatten_path_devices, no_flows)

__all__ = ["AimdFluidSimulation", "AimdRunState"]


@dataclass
class AimdRunState(FluidRunState):
    """A :class:`FluidRunState` plus what AIMD carries between steps.

    Attributes:
        send_rates: (F,) current sending rate of each flow.
        last_decrease: (F,) time of each flow's last multiplicative decrease.
        active_mask: (F,) whether the flow has started and not completed.
        previous_sat_sets: Per-flow satellites of the previous path.
        backlog_codes / backlog_bits: The non-empty drop-tail backlogs as
            parallel (device code, bits) arrays, in column order.
    """

    send_rates: np.ndarray = no_flows()
    last_decrease: np.ndarray = no_flows()
    active_mask: np.ndarray = no_flows(bool)
    previous_sat_sets: List[Optional[frozenset]] = field(default_factory=list)
    backlog_codes: np.ndarray = no_flows(np.int64)
    backlog_bits: np.ndarray = no_flows()


class AimdFluidSimulation(FluidSimulation):
    """TCP-like AIMD rate evolution over shifting shortest paths.

    Supplies only the per-snapshot dynamics to the inherited snapshot
    loop.  Finite flows (``size_bytes`` set) integrate their residual at
    substep granularity: a flow entering at ``start_s`` begins at the
    rate floor (slow-start restart), transfers at its AIMD rate, and
    leaves the offered load once its residual reaches zero — the
    completion time lands on the substep grid (within one RTT).

    Args:
        network: The LEO network.
        flows: Long-running flows (demands cap their rates).
        link_capacity_bps: Uniform device capacity (paper: 10 Mbit/s).
        rtt_estimate_s: Representative RTT used for the AIMD slope and the
            decrease holdoff (paper scenario: ~100 ms).
        mss_bytes: Segment size for the additive-increase slope.
        freeze_topology_at_s: If set, routes are frozen at this time — the
            "static network" baseline (gray line of Fig. 10).
        metrics: Optional registry; when given, the run records the same
            per-snapshot series as :class:`~repro.fluid.engine.FluidSimulation`.
    """

    ENGINE = "aimd"
    KERNEL = ""
    STATE = AimdRunState

    def __init__(self, network: LeoNetwork, flows: Sequence[FluidFlow],
                 link_capacity_bps: float = 10_000_000.0,
                 rtt_estimate_s: float = 0.1,
                 mss_bytes: int = 1500,
                 queue_packets: int = 100,
                 freeze_topology_at_s: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(network, flows, link_capacity_bps,
                         freeze_topology_at_s, metrics=metrics)
        if rtt_estimate_s <= 0.0:
            raise ValueError("RTT must be positive")
        if queue_packets < 0:
            raise ValueError("queue size must be non-negative")
        self.rtt_estimate_s = rtt_estimate_s
        self.mss_bytes = mss_bytes
        self.queue_bits = queue_packets * mss_bytes * 8.0
        from ..simulation.positions import PositionService
        self._positions = PositionService(network, quantum_s=0.1)
        #: Minimum sending rate: one MSS per RTT (nominal).
        self.floor_bps = mss_bytes * 8.0 / rtt_estimate_s

    def extend_flows(self, state: AimdRunState,
                     flows: Sequence[FluidFlow]) -> int:
        first = super().extend_flows(state, flows)
        count = len(self.flows) - first

        def grown(array: np.ndarray, fill: float) -> np.ndarray:
            return np.concatenate([array, np.full(count, fill)])

        # Start every flow at its fair-share guess: capacity split by a
        # nominal contention of 2 (flows converge within a few steps);
        # flows arriving later enter at the rate floor when they activate.
        state.send_rates = grown(state.send_rates,
                                 self.link_capacity_bps / 2.0)
        state.active_mask = np.concatenate([state.active_mask,
                                            state.starts[first:] <= 0.0])
        state.last_decrease = grown(state.last_decrease, -np.inf)
        state.previous_sat_sets.extend([None] * count)
        return first

    def _step(self, state: AimdRunState, t_index: int, time_s: float,
              paths: List[Optional[Tuple[int, ...]]],
              candidates: np.ndarray, faults) -> None:
        """One snapshot step: ``substeps`` RTT-granularity AIMD updates
        over the step's flat (flow, device) incidence."""
        profiler = spans.ACTIVE
        num_flows = len(paths)
        capacity = self.link_capacity_bps
        rates, last_decrease = state.send_rates, state.last_decrease
        active_mask, starts = state.active_mask, state.starts
        residual_bits = state.residual_bits
        # Invariant per-flow rate ceiling (demand- and capacity-capped).
        rate_cap = np.minimum(capacity, state.demand_caps)
        # AIMD and queue dynamics integrate at RTT granularity; paths only
        # change at the (coarser) snapshot step.
        substeps = max(1, round(
            state.step_s / min(state.step_s, self.rtt_estimate_s)))
        dt = state.step_s / substeps
        # Per-flow RTT from the current path geometry (propagation plus
        # a half-full bottleneck queue) drives each flow's AIMD slope:
        # long paths reclaim bandwidth slowly, exactly the paper's
        # "transport is often unable to use the available bandwidth".
        # A path that changed satellites also halves the rate: the
        # reordering-induced decrease of paper §4.2.
        flow_rtt = np.full(num_flows, self.rtt_estimate_s)
        path_cache: Dict[Tuple[int, ...], Tuple[float, frozenset]] = {}
        # Every lookup of a step shares time_s and paths share satellites:
        # propagate each node once per step.
        position: Dict[int, Tuple[float, float, float]] = {}
        for i, path in enumerate(paths):
            if path is None:
                state.previous_sat_sets[i] = None
                continue
            cached = path_cache.get(path)
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
                queueing = 0.5 * self.queue_bits / capacity
                cached = path_cache[path] = (
                    max(propagation_rtt + queueing, 1e-3),
                    frozenset(n for n in path if n < self._num_sats))
            flow_rtt[i], sat_set = cached
            previous = state.previous_sat_sets[i]
            if previous is not None and sat_set != previous:
                rates[i] = max(rates[i] / 2.0, self.floor_bps)
                last_decrease[i] = time_s
            state.previous_sat_sets[i] = sat_set
        # Flat per-step device incidence: one entry per (flow, device)
        # traversal in flow-major path order, devices compacted to
        # integer columns exactly as the max-min engine's matrix build
        # does; devices that only hold backlog take the columns after.
        # Every sub-step below is array arithmetic over these entries.
        num_nodes = self.network.num_nodes
        codes, hop_counts = flatten_path_devices(paths, self._num_sats,
                                                 num_nodes)
        columns, dev_codes = first_appearance_columns(
            np.concatenate([codes, state.backlog_codes]))
        ent_flow = np.repeat(np.arange(num_flows), hop_counts)
        ent_col = columns[:codes.size]
        num_devs = dev_codes.size
        dev_keys = [decode_device(code, num_nodes) for code in dev_codes]
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
        increase_dt = (self.mss_bytes * 8.0 / flow_rtt ** 2
                       * slope_jitter * dt)
        sub_span = (profiler.begin("fluid.aimd.substeps")
                    if profiler.enabled else -1)
        for sub in range(substeps):
            sub_time = time_s + sub * dt
            if state.dynamic:
                # Activate flows whose start time has arrived; they
                # enter at the floor (slow-start restart semantics).
                newly = candidates[~active_mask[candidates]
                                   & (starts[candidates] <= sub_time)]
                active_mask[newly] = True
                rates[newly] = self.floor_bps
            # Offered load per device from current rates.
            ent_active = active_mask[ent_flow]
            act_cols = ent_col[ent_active]
            loads = np.zeros(num_devs)
            np.add.at(loads, act_cols, rates[ent_flow[ent_active]])
            loaded = np.zeros(num_devs, dtype=bool)
            loaded[act_cols] = True
            touched |= loaded | (backlog > 0.0)
            # Virtual drop-tail queues: overload builds backlog, spare
            # capacity drains it; hitting the cap signals drops.
            # Devices no flow uses anymore (zero load) still drain.
            arriving = backlog + loads * dt
            served = np.minimum(dev_cap_dt, arriving)
            leftover = arriving - served
            overflow = loaded & (leftover > self.queue_bits)
            backlog = np.minimum(leftover, self.queue_bits)
            served_bits_arr += served
            if state.dynamic:
                # Residual-size integration: a flow transfers at its
                # sending rate; a finite one completes (leaving the
                # offered load) once its residual is gone.
                act = candidates[active_mask[candidates]
                                 & has_dev[candidates]]
                served_f = np.minimum(rates[act] * dt, residual_bits[act])
                state.delivered_bits[act] += served_f
                residual_bits[act] -= served_f
                done_local = residual_bits[act] <= 1e-3
                done = act[done_local]
                if done.size:
                    residual_bits[done] = 0.0
                    done_rates = rates[done]
                    positive = done_rates > 0.0
                    safe = np.where(positive, done_rates, 1.0)
                    end_time = np.where(
                        positive,
                        sub_time + served_f[done_local] / safe,
                        sub_time + dt)
                    state.fct_s[done] = end_time - starts[done]
                    active_mask[done] = False
            # AIMD reaction.
            rates[~has_dev] = self.floor_bps  # restart on reconnection
            react = active_mask & has_dev
            drop_hit = np.zeros(num_flows, dtype=bool)
            drop_hit[ent_flow[overflow[ent_col]]] = True
            decrease = (react & drop_hit
                        & (sub_time - last_decrease >= flow_rtt))
            rates[decrease] = np.maximum(rates[decrease] / 2.0,
                                         self.floor_bps)
            last_decrease[decrease] = sub_time
            grow = react & ~decrease
            rates[grow] += increase_dt[grow]
            rates[react] = np.minimum(rates[react], rate_cap[react])
        if sub_span != -1:
            profiler.end(sub_span)
        held = np.flatnonzero(backlog > 0.0)
        state.backlog_codes = dev_codes[held]
        state.backlog_bits = backlog[held]
        # Utilization over the step is what a 1 s monitor would report.
        utilization = {dev_keys[j]: float(served_bits_arr[j]) / state.step_s
                       for j in np.flatnonzero(touched)}
        state.rates[t_index] = np.where(has_dev & active_mask, rates, 0.0)
        self._record_snapshot(state, t_index, time_s, paths, utilization,
                              active_count=int(active_mask.sum()))
