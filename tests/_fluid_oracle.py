"""Oracle check for the fluid engine: recompute every recorded snapshot
row of a :class:`~repro.fluid.engine.FluidResult` with the pure-Python
``max_min_fair_allocation`` and demand bit-equality.

Shared by ``tests/`` and ``benchmarks/`` (which put this directory on
``sys.path``, as they do for ``_seed_transport``).
"""

import numpy as np

from repro.fluid.engine import (_ELASTIC_DEMAND_CAPACITIES, _TIME_EPS_S,
                                path_devices)
from repro.fluid.maxmin import max_min_fair_allocation


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
