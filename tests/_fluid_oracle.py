"""Fluid oracle: the pure-Python progressive-filling reference allocator,
a check that recomputes every recorded snapshot row of a
:class:`~repro.fluid.engine.FluidResult` with it and demands bit-equality,
:class:`RescanningFluidSimulation`, the max-min step that re-solves
over every candidate at every sub-event, and :func:`go_cold`, which
makes a simulation's next step start from nothing it remembered.

The fluid engine models long-running TCP flows as attaining the max-min
fair share of their paths — the classic idealization of TCP-like transport
("the goal of TCP-like transport is, after all, to fairly share bandwidth
across the flows traversing a bottleneck", paper §5.4).  Progressive
filling computes that allocation exactly: repeatedly find the link whose
equal split among its still-unfrozen flows is smallest, freeze those flows
at that rate, and continue.  The product solves allocations with
:func:`repro.fluid.vectorized.waterfill`; :func:`max_min_fair_allocation`
here walks dicts and sets instead and shares no code with it.

Shared by ``tests/`` and ``benchmarks/`` (which put this directory on
``sys.path``, as they do for ``_seed_transport``).
"""

from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from repro.fluid.engine import (_ELASTIC_DEMAND_CAPACITIES,
                                _RESIDUAL_EPS_BITS, _TIME_EPS_S,
                                FluidSimulation, first_appearance_rows,
                                flow_link_matrix_from_paths, path_devices)
from repro.fluid.vectorized import waterfill


def max_min_fair_allocation(
        link_capacity: Dict[Hashable, float],
        flow_links: Sequence[Sequence[Hashable]],
        demands: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Progressive-filling max-min fair rates (see
    :func:`progressive_filling`)."""
    return progressive_filling(link_capacity, flow_links, demands)[0]


def progressive_filling(
        link_capacity: Dict[Hashable, float],
        flow_links: Sequence[Sequence[Hashable]],
        demands: Optional[Sequence[float]] = None,
) -> Tuple[np.ndarray, int]:
    """Progressive-filling max-min fair rates, and the freezing events
    it took to find them.

    A flow listing the same link more than once (a loop path) consumes
    capacity once per traversal, so it is weighted by its traversal
    multiplicity in both the equal-share computation and the capacity
    decrement: per link, ``sum(rate * multiplicity) <= capacity`` always
    holds.

    Args:
        link_capacity: Capacity of every link (any hashable link key).
        flow_links: For each flow, the links it traverses, one entry per
            traversal.  A flow with no links is only limited by its
            demand.
        demands: Optional per-flow rate caps (e.g. an application's send
            rate); ``None`` means every flow is elastic (infinite demand).

    Returns:
        ``(rates, events)``: the (F,) allocated rates and the number of
        freezing events — one per water level reached, which the
        product's kernels take too.

    Raises:
        ValueError: On negative capacities/demands or links missing from
            ``link_capacity``.
    """
    num_flows = len(flow_links)
    rates = np.zeros(num_flows)
    if num_flows == 0:
        return rates, 0
    for link, capacity in link_capacity.items():
        if capacity < 0.0:
            raise ValueError(f"negative capacity on link {link!r}")
        if capacity != capacity:
            raise ValueError(f"NaN capacity on link {link!r}")

    if demands is None:
        demand_arr = np.full(num_flows, np.inf)
    else:
        demand_arr = np.asarray(demands, dtype=float)
        if len(demand_arr) != num_flows:
            raise ValueError("demands length must match flow count")
        # ``not (x >= 0)`` also rejects NaN, which ``x < 0`` lets through.
        if not (demand_arr >= 0.0).all():
            raise ValueError("demands must be non-negative")

    # Build link membership with traversal multiplicities; verify link
    # keys.  ``flows_on_link[link]`` maps flow index -> times the flow
    # traverses the link (1 for ordinary simple paths).
    flows_on_link: Dict[Hashable, Dict[int, int]] = {}
    for flow_index, links in enumerate(flow_links):
        for link in links:
            if link not in link_capacity:
                raise ValueError(f"flow {flow_index} uses unknown link "
                                 f"{link!r}")
            members = flows_on_link.setdefault(link, {})
            members[flow_index] = members.get(flow_index, 0) + 1

    remaining = {link: float(link_capacity[link])
                 for link in flows_on_link}
    active_on_link = {link: dict(members) for link, members
                      in flows_on_link.items()}
    unfrozen = set(range(num_flows))

    # Flows limited only by demand (no capacity-constrained links).
    for flow_index in list(unfrozen):
        if not flow_links[flow_index]:
            rates[flow_index] = demand_arr[flow_index]
            if not np.isfinite(rates[flow_index]):
                raise ValueError(
                    f"flow {flow_index} has no links and infinite demand")
            unfrozen.discard(flow_index)

    current_level = 0.0
    events = 0
    while unfrozen:
        events += 1
        # The next freezing event: either a link saturates at its equal
        # share, or a flow reaches its demand cap.  A link's share grows
        # with slope 1/weight where weight is the total traversal count of
        # its unfrozen flows (a flow crossing twice drains it twice as
        # fast per unit of rate).
        best_share = np.inf
        bottleneck = None
        for link, members in active_on_link.items():
            if not members:
                continue
            weight = sum(members.values())
            share = current_level + remaining[link] / weight
            if share < best_share:
                best_share = share
                bottleneck = link
        capped = min((demand_arr[f] for f in unfrozen), default=np.inf)
        if capped < best_share:
            best_share = capped
            bottleneck = None

        if not np.isfinite(best_share):
            raise ValueError("some flows are unconstrained (infinite demand "
                             "and no saturating link)")

        increment = best_share - current_level
        to_freeze = set()
        if bottleneck is not None:
            to_freeze |= set(active_on_link[bottleneck])
        to_freeze |= {f for f in unfrozen if demand_arr[f] <= best_share}

        # Advance everyone to the new water level, then freeze.
        for flow_index in unfrozen:
            rates[flow_index] = min(best_share, demand_arr[flow_index])
        for link in list(active_on_link):
            members = active_on_link[link]
            remaining[link] -= increment * sum(members.values())
            if remaining[link] < 0.0:
                remaining[link] = 0.0
        for flow_index in to_freeze:
            unfrozen.discard(flow_index)
            for link in flow_links[flow_index]:
                active_on_link[link].pop(flow_index, None)
        for link in [l for l, members in active_on_link.items()
                     if not members]:
            del active_on_link[link]
        current_level = best_share
    return rates, events


def go_cold(simulation: FluidSimulation) -> None:
    """Drop everything a fluid simulation keeps only to save time — the
    previous step's rows and walk, the router's remembered update and
    its transit cache — so its next step walks every row and solves its
    routing afresh, as a freshly built simulation would."""
    simulation._last_step = None
    router = simulation._router
    router._forget()
    router._cached_snapshot = router._cached_transit = None


def first_appearance_columns(codes):
    """The sort-based column numbering the product's
    :func:`repro.fluid.engine.first_appearance_columns` replaced:
    ``(columns, column_codes)`` from one ``np.unique``, columns in
    first-appearance order."""
    if not codes.size:
        return codes, codes
    uniq, first_pos, inverse = np.unique(
        codes, return_index=True, return_inverse=True)
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    return rank[inverse.reshape(-1)], uniq[order]


def setdefault_classes(class_of, flows, elastic_cap_bps):
    """Flow class ids the per-flow way ``extend_flows`` assigned them
    before they were built from arrays: one ``setdefault`` per flow on
    ``class_of`` (``((src_gid, dst_gid), cap) -> id``, updated in
    place), caps clipped to ``elastic_cap_bps``."""
    return [class_of.setdefault(
        ((flow.src_gid, flow.dst_gid), min(flow.demand_bps, elastic_cap_bps)),
        len(class_of)) for flow in flows]


#: How far ``start_s + flow_fct_s`` may round above the completion
#: instant: ``fct = done - start`` and back lose at most an ulp each.
_END_ROUNDING_ULPS = 4


def assert_result_matches_oracle(result, flows, faults=None):
    """Every row of ``flow_rates_bps`` / ``device_load_bps`` must equal
    the oracle allocation over ``flow_paths`` at that snapshot.

    Links run at ``link_capacity_bps``, scaled by ``faults``'
    capacity factors at the snapshot time when a schedule is given (a
    cut or dark device then has capacity 0, as in the engine).

    A flow is active at snapshot time ``t`` when it has started, has a
    path and still has bits to send at ``t`` — the engine's rule: it
    completes (``start_s + flow_fct_s``) after ``t``, even if only
    within ``_TIME_EPS_S`` of it.  The sum may round a few ulps off
    the completion instant the FCT was cut from, so a flow completing
    within ``_END_ROUNDING_ULPS`` ulps of ``t`` counts as ended.  Link and
    flow order follow the recorded paths, which is the order the engine
    numbers its matrix columns in — so equality is exact, not approximate.
    """
    starts = np.array([flow.start_s for flow in flows])
    demands = np.minimum(np.array([flow.demand_bps for flow in flows]),
                         _ELASTIC_DEMAND_CAPACITIES
                         * result.link_capacity_bps)
    if result.flow_fct_s is None:
        ends = np.full(len(flows), np.inf)
    else:
        ends = np.where(np.isnan(result.flow_fct_s), np.inf,
                        starts + result.flow_fct_s)
    for t_index, time_s in enumerate(result.times_s):
        paths = result.flow_paths[t_index]
        flow_links = {i: path_devices(path, result.num_satellites)
                      for i, path in enumerate(paths) if path is not None}
        capacities = {link: result.link_capacity_bps
                      for links in flow_links.values() for link in links}
        if faults is not None:
            factors = faults.capacity_factors(
                list(capacities), result.num_satellites, float(time_s))
            capacities = {link: result.link_capacity_bps * factor
                          for link, factor in zip(capacities, factors)}
        ended_by = time_s + _END_ROUNDING_ULPS * np.spacing(time_s)
        active = [i for i in flow_links
                  if starts[i] <= time_s + _TIME_EPS_S
                  and ends[i] > ended_by]
        allocated = max_min_fair_allocation(
            capacities, [flow_links[i] for i in active],
            demands=demands[active])
        expected = np.zeros(len(flows))
        expected[active] = allocated
        assert np.array_equal(result.flow_rates_bps[t_index], expected), (
            f"snapshot {t_index}: rates diverge from the oracle")
        loads = {}
        for i, rate in zip(active, allocated):
            for link in flow_links[i]:
                loads[link] = loads.get(link, 0.0) + rate
        assert result.device_load_bps[t_index] == loads, (
            f"snapshot {t_index}: device loads diverge from the oracle")


class RescanningFluidSimulation(FluidSimulation):
    """The max-min engine with the sub-event loop it had before its
    re-solves were driven by events: every arrival or completion
    rebuilds the active mask over all the step's candidates, rescans
    every start for the next arrival and integrates with fancy indexing.
    The product's event-driven step must equal it bit for bit, with the
    same number of solves."""

    def _step(self, state, time_s, step, faults):
        candidates, row_of_cand, lead = (step.candidates, step.row_of_cand,
                                         step.lead)
        matrix, hop_counts = flow_link_matrix_from_paths(
            step.table, step.counts, self._num_sats, step.devices,
            lambda keys: self._device_capacities(keys, faults, time_s))
        keys = matrix.link_keys

        starts, residual_bits = state.starts, state.residual_bits
        step_end = time_s + state.step_s
        starts_c = starts[candidates]
        row_demands = state.demand_caps[lead]
        has_path = (hop_counts > 0)[row_of_cand]
        tau = time_s
        recorded = False
        while True:
            active = np.flatnonzero((starts_c <= tau + _TIME_EPS_S)
                                    & (residual_bits[candidates] > 0.0)
                                    & has_path)
            # Solve each row once, weighted by its active members, rows
            # ordered by their first *active* member so the columns keep
            # the per-flow first-appearance order.  With one member per
            # row (the common small solve) ``rows`` is that already.
            rows = row_of_cand[active]
            members = np.bincount(rows, minlength=matrix.num_flows)
            solved, slot, copies = rows, slice(None), None
            if np.count_nonzero(members) < rows.size:
                slot, opener = first_appearance_rows(rows, members.size)
                solved = rows[opener]
                copies = members[solved]
            solved_rates = waterfill(matrix, demands=row_demands,
                                     active=solved, multiplicity=copies)
            allocated = solved_rates[slot]
            state.solves += 1
            global_active = candidates[active]
            if not recorded:
                # Flow by flow in traversal order: the bits of a load
                # depend on the order its rates were added in.
                load_arr = matrix.link_loads(allocated, rows)
                # A link is recorded iff a row with an active member
                # crosses it, carrying rate or not.
                crossed = np.zeros(matrix.num_links, dtype=bool)
                crossed[matrix.link_index[np.repeat(
                    members > 0, np.diff(matrix.indptr))]] = True
                loads = {keys[j]: float(load_arr[j])
                         for j in np.flatnonzero(crossed)}
                row_rates = np.zeros(matrix.num_flows)
                row_rates[solved] = solved_rates
                eligible = ((starts_c <= tau + _TIME_EPS_S)
                            & (residual_bits[candidates] > 0.0))
                self._record_snapshot(state, time_s, step, row_rates,
                                      eligible, loads,
                                      active_count=len(active))
                recorded = True
            next_tau = step_end
            pending = starts_c[(starts_c > tau + _TIME_EPS_S)
                               & (starts_c < next_tau)]
            if pending.size:
                next_tau = float(pending.min())
            res_act = residual_bits[global_active]
            finishing = np.isfinite(res_act) & (allocated > 0.0)
            if finishing.any():
                done = tau + np.maximum(
                    res_act[finishing] / allocated[finishing], _TIME_EPS_S)
                earliest = float(done.min())
                if earliest < next_tau:
                    next_tau = earliest
            dt = next_tau - tau
            if dt > 0.0 and active.size:
                positive = allocated > 0.0
                g_pos = global_active[positive]
                served = np.minimum(allocated[positive] * dt,
                                    residual_bits[g_pos])
                state.delivered_bits[g_pos] += served
                finite = np.isfinite(residual_bits[g_pos])
                g_fin = g_pos[finite]
                residual_bits[g_fin] -= served[finite]
                completed = residual_bits[g_fin] <= _RESIDUAL_EPS_BITS
                g_done = g_fin[completed]
                residual_bits[g_done] = 0.0
                state.fct_s[g_done] = next_tau - starts[g_done]
            tau = next_tau
            if tau >= step_end - _TIME_EPS_S:
                break


class PerFlowRecording:
    """Mixin for a fluid simulation class that also keeps the per-flow
    history the engines kept before they kept one rate and one path per
    flow class: at every snapshot a rate per flow — its row's rate when
    it has started and has bits left at the snapshot, read off the
    run state rather than the engine's eligible mask, else 0 — and a
    path per flow, its row's tuple when the step routed it, else None.
    Rows recorded before flows were added lack them; :meth:`per_flow`
    pads those with 0 and None, as the old history did when it grew.

    Use as ``class Recorded(PerFlowRecording, FluidSimulation)``.
    """

    def start_run(self, duration_s, step_s=1.0):
        self.recorded_rates, self.recorded_paths = [], []
        return super().start_run(duration_s, step_s)

    def _record_snapshot(self, state, time_s, step, row_rates, eligible,
                         loads, active_count):
        rates = np.zeros(len(state.starts))
        paths = [None] * len(state.starts)
        for flow, row in zip(step.candidates.tolist(),
                             step.row_of_cand.tolist()):
            paths[flow] = step.paths[row]
            if (state.starts[flow] <= time_s + _TIME_EPS_S
                    and state.residual_bits[flow] > 0.0):
                rates[flow] = row_rates[row]
        self.recorded_rates.append(rates)
        self.recorded_paths.append(paths)
        super()._record_snapshot(state, time_s, step, row_rates, eligible,
                                 loads, active_count)

    def per_flow(self, num_flows):
        """``(rates, paths)``: the (T, F) rates and the per-snapshot path
        lists of the run, every row padded to ``num_flows`` flows."""
        rates = np.zeros((len(self.recorded_rates), num_flows))
        for row, recorded in zip(rates, self.recorded_rates):
            row[:len(recorded)] = recorded
        return rates, [paths + [None] * (num_flows - len(paths))
                       for paths in self.recorded_paths]
