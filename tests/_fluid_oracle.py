"""Fluid oracle: the pure-Python progressive-filling reference allocator,
and a check that recomputes every recorded snapshot row of a
:class:`~repro.fluid.engine.FluidResult` with it and demands bit-equality.

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

from typing import Dict, Hashable, Optional, Sequence

import numpy as np

from repro.fluid.engine import (_ELASTIC_DEMAND_CAPACITIES, _TIME_EPS_S,
                                path_devices)


def max_min_fair_allocation(
        link_capacity: Dict[Hashable, float],
        flow_links: Sequence[Sequence[Hashable]],
        demands: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Progressive-filling max-min fair rates.

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
        (F,) array of allocated rates.

    Raises:
        ValueError: On negative capacities/demands or links missing from
            ``link_capacity``.
    """
    num_flows = len(flow_links)
    rates = np.zeros(num_flows)
    if num_flows == 0:
        return rates
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
    while unfrozen:
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
    return rates


def assert_result_matches_oracle(result, flows, capacity_overrides=None):
    """Every row of ``flow_rates_bps`` / ``device_load_bps`` must equal
    the oracle allocation over ``flow_paths`` at that snapshot.

    A flow is active at snapshot time ``t`` when it has started, has not
    completed before ``t`` (``flow_fct_s``), and has a path.  Link and
    flow order follow the recorded paths, which is the order the engine
    numbers its matrix columns in — so equality is exact, not approximate.
    """
    overrides = capacity_overrides or {}
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
        capacities = {link: overrides.get(link, result.link_capacity_bps)
                      for links in flow_links.values() for link in links}
        active = [i for i in flow_links
                  if starts[i] <= time_s + _TIME_EPS_S
                  and ends[i] > time_s + _TIME_EPS_S]
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
