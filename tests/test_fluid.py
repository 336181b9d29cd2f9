"""Tests for the fluid engines: max-min allocation, AIMD dynamics."""

import hashlib
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Hypatia, random_permutation_pairs
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.fluid.aimd import AimdFluidSimulation, AimdRunState
from repro.fluid.engine import (FluidFlow, FluidSimulation,
                                first_appearance_columns,
                                first_appearance_rows, path_devices)
from repro.routing.engine import RoutingEngine
from repro.topology.network import LeoNetwork
from repro.traffic.arrivals import FlowRequest, WorkloadSchedule
from repro.fluid import vectorized
from repro.fluid.vectorized import (SMALL_SOLVE_ENTRIES, FlowLinkMatrix,
                                    _waterfill_arrays, _waterfill_scalars,
                                    max_min_fair_allocation, waterfill)

from _fluid_oracle import assert_result_matches_oracle
from _fluid_oracle import max_min_fair_allocation as oracle_allocation

# The reference oracle, then the product's allocator (test ids date from
# when the latter was called ``max_min_fair_allocation_vectorized``).
KERNELS = (oracle_allocation, max_min_fair_allocation)
BOTH_KERNELS = [
    pytest.param(kernel, id=name) for kernel, name in zip(
        KERNELS, ("max_min_fair_allocation",
                  "max_min_fair_allocation_vectorized"))]


def test_one_product_allocator_and_an_oracle_outside_the_product():
    """No differential may silently compare the product with itself: the
    product exports one allocator, and what this file and the Hypothesis
    suite call the oracle is defined under ``tests/``."""
    import inspect
    from pathlib import Path

    import repro.fluid
    import test_property_based
    assert [name for name in repro.fluid.__all__ if "allocation" in name] \
        == ["max_min_fair_allocation"]
    for module in (sys.modules[__name__], test_property_based):
        assert module.max_min_fair_allocation \
            is repro.fluid.max_min_fair_allocation
        oracle = module.oracle_allocation
        assert oracle is not repro.fluid.max_min_fair_allocation
        assert Path(inspect.getsourcefile(oracle)).parent \
            == Path(__file__).resolve().parent


class TestMaxMin:
    def test_single_flow_takes_link(self):
        rates = oracle_allocation({"l": 10.0}, [["l"]])
        np.testing.assert_allclose(rates, [10.0])

    def test_equal_split(self):
        rates = oracle_allocation({"l": 9.0}, [["l"], ["l"], ["l"]])
        np.testing.assert_allclose(rates, [3.0, 3.0, 3.0])

    def test_classic_three_link_example(self):
        # Flow A uses l1+l2, flow B uses l1, flow C uses l2.
        # l1 = 10, l2 = 4: A and C split l2 at 2 each; B then gets 8.
        capacity = {"l1": 10.0, "l2": 4.0}
        flows = [["l1", "l2"], ["l1"], ["l2"]]
        rates = oracle_allocation(capacity, flows)
        np.testing.assert_allclose(rates, [2.0, 8.0, 2.0])

    def test_demand_cap(self):
        rates = oracle_allocation({"l": 10.0}, [["l"], ["l"]],
                                  demands=[1.0, 100.0])
        np.testing.assert_allclose(rates, [1.0, 9.0])

    def test_no_link_flow_needs_finite_demand(self):
        with pytest.raises(ValueError):
            oracle_allocation({}, [[]])
        rates = oracle_allocation({}, [[]], demands=[5.0])
        np.testing.assert_allclose(rates, [5.0])

    def test_no_capacity_exceeded(self):
        rng = np.random.default_rng(0)
        links = {f"l{i}": float(rng.uniform(1, 10)) for i in range(8)}
        flows = []
        link_names = list(links)
        for _ in range(20):
            k = rng.integers(1, 4)
            flows.append(list(rng.choice(link_names, size=k, replace=False)))
        rates = oracle_allocation(links, flows)
        loads = {name: 0.0 for name in links}
        for flow, rate in zip(flows, rates):
            for link in flow:
                loads[link] += rate
        for name in links:
            assert loads[name] <= links[name] * (1 + 1e-9)

    def test_max_min_property(self):
        """No flow can be raised without lowering a flow with an equal or
        smaller rate: every flow has a saturated link where it has the
        maximal rate."""
        capacity = {"a": 6.0, "b": 9.0, "c": 4.0}
        flows = [["a", "b"], ["b"], ["a", "c"], ["c"], ["b", "c"]]
        rates = oracle_allocation(capacity, flows)
        loads = {name: 0.0 for name in capacity}
        for flow, rate in zip(flows, rates):
            for link in flow:
                loads[link] += rate
        for i, flow in enumerate(flows):
            bottlenecks = [link for link in flow
                           if loads[link] >= capacity[link] - 1e-9]
            assert bottlenecks, f"flow {i} has no saturated link"
            assert any(
                rates[i] >= max(rates[j] for j in range(len(flows))
                                if link in flows[j]) - 1e-9
                for link in bottlenecks)

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError):
            oracle_allocation({"l": 1.0}, [["x"]])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            oracle_allocation({"l": -1.0}, [["l"]])

    def test_empty_flows(self):
        assert len(oracle_allocation({"l": 1.0}, [])) == 0

    def test_zero_capacity_link(self):
        rates = oracle_allocation({"l": 0.0}, [["l"]])
        np.testing.assert_allclose(rates, [0.0])

    def test_zero_capacity_link_does_not_starve_others(self):
        """Flows crossing a dead link get 0; disjoint flows are unaffected."""
        capacity = {"dead": 0.0, "live": 10.0}
        flows = [["dead"], ["dead", "live"], ["live"]]
        rates = oracle_allocation(capacity, flows)
        np.testing.assert_allclose(rates, [0.0, 0.0, 10.0])

    def test_demand_exactly_at_fair_share(self):
        """A demand equal to the link's equal split freezes at that rate
        and leaves nothing stranded: the other flow takes the rest."""
        rates = oracle_allocation({"l": 10.0}, [["l"], ["l"]],
                                  demands=[5.0, np.inf])
        np.testing.assert_allclose(rates, [5.0, 5.0])

    def test_all_flows_demand_capped(self):
        """When every demand is below any link share, rates == demands and
        capacity goes unused."""
        rates = oracle_allocation({"l": 100.0},
                                  [["l"], ["l"], ["l"]],
                                  demands=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(rates, [1.0, 2.0, 3.0])


class TestPathDevices:
    def test_isl_and_gsl_hops(self):
        # src GS (100) -> sat 5 -> sat 6 -> dst GS (101), 100 satellites.
        devices = path_devices([100, 5, 6, 101], num_satellites=100)
        assert devices == [("gsl", 100), (5, 6), ("gsl", 6)]

    def test_bent_pipe_path(self):
        devices = path_devices([100, 5, 102, 7, 101], num_satellites=100)
        assert devices == [("gsl", 100), ("gsl", 5), ("gsl", 102),
                           ("gsl", 7)]


class TestFluidSimulation:
    def test_rates_respect_capacity(self, small_network):
        flows = [FluidFlow(0, 3), FluidFlow(1, 4), FluidFlow(2, 5)]
        sim = FluidSimulation(small_network, flows,
                              link_capacity_bps=10e6)
        result = sim.run(duration_s=4.0, step_s=2.0)
        assert result.flow_rates_bps.shape == (2, 3)
        assert (result.flow_rates_bps <= 10e6 + 1e-6).all()
        for loads in result.device_load_bps:
            for load in loads.values():
                assert load <= 10e6 * (1 + 1e-9)

    def test_elastic_flow_bottlenecked_somewhere(self, small_network):
        flows = [FluidFlow(0, 3)]
        sim = FluidSimulation(small_network, flows, link_capacity_bps=10e6)
        result = sim.run(duration_s=2.0, step_s=1.0)
        # A single elastic flow gets the full device capacity.
        np.testing.assert_allclose(result.flow_rates_bps, 10e6, rtol=1e-6)
        unused = result.unused_bandwidth_bps(0)
        np.testing.assert_allclose(unused, 0.0, atol=1.0)

    def test_frozen_topology_constant_paths(self, small_network):
        flows = [FluidFlow(0, 3)]
        sim = FluidSimulation(small_network, flows,
                              freeze_topology_at_s=0.0)
        result = sim.run(duration_s=3.0, step_s=1.0)
        assert result.flow_paths[0][0] == result.flow_paths[2][0]

    def test_isl_utilization_excludes_gsl(self, small_network):
        flows = [FluidFlow(0, 3), FluidFlow(4, 1)]
        result = FluidSimulation(small_network, flows).run(2.0, 1.0)
        for key in result.isl_utilization(0):
            assert key[0] != "gsl"

    def test_validation(self, small_network):
        with pytest.raises(ValueError):
            FluidSimulation(small_network, [])
        with pytest.raises(ValueError):
            FluidSimulation(small_network, [FluidFlow(0, 1)],
                            link_capacity_bps=0.0)
        with pytest.raises(ValueError):
            FluidFlow(2, 2)
        with pytest.raises(ValueError):
            FluidFlow(0, 1, demand_bps=0.0)


class TestAimdFluid:
    def test_rates_stay_positive_and_bounded(self, small_network):
        flows = [FluidFlow(0, 3), FluidFlow(1, 4), FluidFlow(5, 2)]
        sim = AimdFluidSimulation(small_network, flows,
                                  link_capacity_bps=10e6)
        result = sim.run(duration_s=20.0, step_s=1.0)
        rates = result.flow_rates_bps
        connected = rates > 0
        assert (rates[connected] <= 10e6 + 1e-6).all()

    def test_single_flow_converges_to_capacity(self, small_network):
        sim = AimdFluidSimulation(small_network, [FluidFlow(0, 3)],
                                  link_capacity_bps=10e6)
        result = sim.run(duration_s=40.0, step_s=1.0)
        # Alone on its path, AIMD should reach (and ride at) capacity.
        assert result.flow_rates_bps[-5:, 0].max() > 0.9 * 10e6

    def test_two_flows_share_roughly_fairly(self, small_network):
        """Two flows with the same bottleneck converge to similar average
        rates."""
        flows = [FluidFlow(0, 3), FluidFlow(0, 3)]
        sim = AimdFluidSimulation(small_network, flows,
                                  link_capacity_bps=10e6)
        result = sim.run(duration_s=60.0, step_s=1.0)
        late = result.flow_rates_bps[30:]
        means = late.mean(axis=0)
        assert means.min() > 0.25 * means.max()

    def test_demand_cap_respected(self, small_network):
        sim = AimdFluidSimulation(
            small_network, [FluidFlow(0, 3, demand_bps=1e6)],
            link_capacity_bps=10e6)
        result = sim.run(duration_s=20.0, step_s=1.0)
        assert result.flow_rates_bps.max() <= 1e6 + 1e-6

    def test_utilization_capped_at_capacity(self, small_network):
        flows = [FluidFlow(0, 3), FluidFlow(1, 4)]
        sim = AimdFluidSimulation(small_network, flows,
                                  link_capacity_bps=10e6)
        result = sim.run(duration_s=10.0, step_s=1.0)
        for loads in result.device_load_bps:
            for load in loads.values():
                assert load <= 10e6 * (1 + 1e-9)

    def test_validation(self, small_network):
        with pytest.raises(ValueError):
            AimdFluidSimulation(small_network, [])
        with pytest.raises(ValueError):
            AimdFluidSimulation(small_network, [FluidFlow(0, 1)],
                                rtt_estimate_s=0.0)
        with pytest.raises(ValueError):
            AimdFluidSimulation(small_network, [FluidFlow(0, 1)],
                                queue_packets=-1)


class TestFluidFlowValidation:
    """Regression: NaN demand must be rejected, not silently accepted."""

    def test_nan_demand_rejected(self):
        with pytest.raises(ValueError, match="demand"):
            FluidFlow(0, 1, demand_bps=float("nan"))

    def test_negative_and_zero_demand_rejected(self):
        for demand in (0.0, -5.0, float("-inf")):
            with pytest.raises(ValueError):
                FluidFlow(0, 1, demand_bps=demand)

    def test_size_and_start_validated(self):
        for size in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                FluidFlow(0, 1, size_bytes=size)
        for start in (-1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                FluidFlow(0, 1, start_s=start)
        flow = FluidFlow(0, 1, size_bytes=100.0, start_s=2.0)
        assert flow.size_bytes == 100.0
        assert FluidFlow(0, 1).size_bytes is None


class TestPerfSummaryEdgeCases:
    """FluidResult.perf_summary on degenerate results."""

    @staticmethod
    def _result(**overrides):
        from repro.fluid.engine import FluidResult
        defaults = dict(
            times_s=np.array([0.0, 1.0]),
            flow_rates_bps=np.zeros((2, 0)),
            flow_paths=[[], []],
            device_load_bps=[{}, {}],
            num_satellites=100,
            link_capacity_bps=10e6,
        )
        defaults.update(overrides)
        return FluidResult(**defaults)

    def test_zero_flows(self):
        summary = self._result().perf_summary()
        assert summary["flows"] == 0.0
        assert summary["flows_ever_connected"] == 0.0
        assert summary["mean_rate_bps"] == 0.0
        assert "fct_mean_s" not in summary

    def test_all_disconnected_flows(self):
        result = self._result(
            flow_rates_bps=np.zeros((2, 3)),
            flow_paths=[[None] * 3, [None] * 3])
        summary = result.perf_summary()
        assert summary["flows"] == 3.0
        assert summary["flows_ever_connected"] == 0.0
        assert summary["peak_utilization"] == 0.0

    def test_empty_device_load(self):
        summary = self._result(device_load_bps=[]).perf_summary()
        assert "peak_utilization" not in summary

    def test_no_completions_reports_zero_fct(self):
        result = self._result(
            flow_rates_bps=np.zeros((2, 1)),
            flow_paths=[[None], [None]],
            duration_s=2.0,
            flow_offered_bits=np.array([8000.0]),
            flow_delivered_bits=np.array([0.0]),
            flow_fct_s=np.array([np.nan]))
        summary = result.perf_summary()
        assert summary["flows_completed"] == 0.0
        assert "fct_mean_s" not in summary
        assert summary["flows_finite"] == 1.0
        assert summary["offered_load_bps"] == pytest.approx(4000.0)
        assert summary["delivered_load_bps"] == 0.0
        assert result.fct_values().size == 0


class TestRepeatedLinkRegression:
    """ISSUE 6 regression: loop paths must be weighted by traversal
    multiplicity.

    The old set-based allocator deduped a flow's repeated link
    traversals, so ``{'a': 10.0}`` with paths ``[['a', 'a'], ['a']]``
    returned ``[5., 5.]`` — 5*2 + 5 = 15 bps consumed on a 10 bps link.
    The fair answer weights the loop flow twice: both flows freeze at
    10/3, and 2*(10/3) + 10/3 = 10 exactly saturates the link.
    """

    @pytest.mark.parametrize("allocate", BOTH_KERNELS)
    def test_issue_example(self, allocate):
        rates = allocate({"a": 10.0}, [["a", "a"], ["a"]])
        np.testing.assert_allclose(rates, [10.0 / 3.0, 10.0 / 3.0])
        consumed = 2.0 * rates[0] + rates[1]
        assert consumed <= 10.0 * (1 + 1e-9)

    @pytest.mark.parametrize("allocate", BOTH_KERNELS)
    def test_triple_traversal(self, allocate):
        rates = allocate({"a": 12.0}, [["a", "a", "a"], ["a"]])
        np.testing.assert_allclose(rates, [3.0, 3.0])
        assert 3.0 * rates[0] + rates[1] <= 12.0 * (1 + 1e-9)

    @pytest.mark.parametrize("allocate", BOTH_KERNELS)
    def test_loop_flow_with_demand_cap(self, allocate):
        # The loop flow caps at its demand; the freed weight goes to the
        # single-traversal flow (2*1 + 8 = 10).
        rates = allocate({"a": 10.0}, [["a", "a"], ["a"]],
                         demands=[1.0, np.inf])
        np.testing.assert_allclose(rates, [1.0, 8.0])

    @pytest.mark.parametrize("allocate", BOTH_KERNELS)
    def test_loop_through_two_links(self, allocate):
        # Flow 0 crosses l1 twice and l2 once; flow 1 crosses l2 only.
        # l1 saturates first at share 5/2; l2 then leaves 10 - 2.5 for
        # flow 1.
        rates = allocate({"l1": 5.0, "l2": 10.0},
                         [["l1", "l2", "l1"], ["l2"]])
        np.testing.assert_allclose(rates, [2.5, 7.5])


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of ``waterfill``'s kernels, in the order it ran them."""
    calls = []
    for kernel in (_waterfill_scalars, _waterfill_arrays):
        def spy(*args, kernel=kernel):
            calls.append(kernel.__name__)
            return kernel(*args)
        monkeypatch.setattr(vectorized, kernel.__name__, spy)
    return calls


class TestVectorizedKernel:
    """The array waterfilling kernel against the pure-Python oracle."""

    def _random_scenario(self, rng):
        num_links = rng.integers(1, 7)
        links = [f"l{j}" for j in range(num_links)]
        capacity = {link: float(rng.uniform(0.5, 20.0)) for link in links}
        num_flows = rng.integers(1, 11)
        flow_links = []
        for _ in range(num_flows):
            hops = rng.integers(0, 5)
            # Sampling with replacement makes repeated traversals common.
            flow_links.append(list(rng.choice(links, size=hops)))
        if rng.random() < 0.5:
            demands = rng.uniform(0.1, 15.0, size=num_flows)
        else:
            demands = None
            for flow in flow_links:
                if not flow:
                    flow.append(links[0])
        return capacity, flow_links, demands

    def test_bit_identical_to_oracle_on_random_scenarios(self):
        rng = np.random.default_rng(1234)
        for _ in range(300):
            capacity, flow_links, demands = self._random_scenario(rng)
            expected = oracle_allocation(capacity, flow_links,
                                         demands)
            got = max_min_fair_allocation(capacity, flow_links,
                                          demands)
            assert np.array_equal(expected, got), (capacity, flow_links,
                                                   demands)

    def test_waterfill_subset_activation_matches_subset_solve(self):
        rng = np.random.default_rng(99)
        capacity = {f"l{j}": float(rng.uniform(1.0, 10.0))
                    for j in range(5)}
        flow_links = [list(rng.choice(list(capacity), size=3))
                      for _ in range(12)]
        demands = rng.uniform(0.5, 8.0, size=12)
        matrix = FlowLinkMatrix.from_paths(capacity, flow_links)
        active = np.array([0, 3, 4, 7, 11])
        rates = waterfill(matrix, demands=demands, active=active)
        expected = oracle_allocation(
            capacity, [flow_links[i] for i in active], demands[active])
        assert np.array_equal(rates, expected)

    def test_from_paths_rejects_unknown_link(self):
        with pytest.raises(ValueError):
            FlowLinkMatrix.from_paths({"l": 1.0}, [["l", "x"]])

    def test_error_parity_with_oracle(self):
        # Infinite-demand flow with no links: both kernels refuse.
        with pytest.raises(ValueError):
            oracle_allocation({}, [[]])
        with pytest.raises(ValueError):
            max_min_fair_allocation({}, [[]])

    def test_link_loads_count_multiplicity(self):
        matrix = FlowLinkMatrix.from_paths({"a": 10.0},
                                           [["a", "a"], ["a"]])
        loads = matrix.link_loads(np.array([2.0, 3.0]))
        np.testing.assert_allclose(loads, [7.0])

    @pytest.mark.parametrize("capacity, flow_links, message", [
        ({"l": 1.0}, [["l"], []], "flow 1 has no links and infinite demand"),
        ({"l": np.inf}, [["l"]], "some flows are unconstrained (infinite "
                                 "demand and no saturating link)"),
    ])
    def test_both_kernels_refuse_in_the_oracles_words(self, capacity,
                                                      flow_links, message):
        matrix = FlowLinkMatrix.from_paths(capacity, flow_links)
        rows = np.arange(len(flow_links))
        for solve in (
                lambda: oracle_allocation(capacity, flow_links),
                lambda: _waterfill_scalars(
                    matrix, np.full(rows.size, np.inf), rows, None),
                lambda: _waterfill_arrays(
                    matrix, np.full(rows.size, np.inf), rows, None)):
            with pytest.raises(ValueError) as caught:
                solve()
            assert str(caught.value) == message

    def test_nan_demand_is_rejected_not_allocated(self):
        """``(dem < 0).any()`` let NaN through: the array kernel returned
        ``[nan, 3.]`` where the oracle returned ``[5., 3.]``."""
        for allocate in KERNELS:
            with pytest.raises(ValueError,
                               match="demands must be non-negative"):
                allocate({"l": 10.0}, [["l"], ["l"]],
                         demands=[np.nan, 3.0])
        # Past the small-solve bound too (the check is shared).
        rows = SMALL_SOLVE_ENTRIES + 1
        matrix = FlowLinkMatrix.from_paths({"l": 10.0}, [["l"]] * rows)
        demands = np.full(rows, 3.0)
        demands[-1] = np.nan
        with pytest.raises(ValueError, match="demands must be non-negative"):
            waterfill(matrix, demands=demands)

    def test_nan_capacity_is_rejected_by_name(self):
        """Used to surface as "some flows are unconstrained"."""
        for allocate in KERNELS:
            with pytest.raises(ValueError, match="NaN capacity on link 'l'"):
                allocate({"l": np.nan}, [["l"]])
        with pytest.raises(ValueError, match="NaN capacity on link 'b'"):
            FlowLinkMatrix(["a", "b"], np.array([1.0, np.nan]),
                           np.array([0, 1]), np.array([0]))

    def test_kernel_is_chosen_by_solve_size_alone(self, kernel_calls):
        """At most SMALL_SOLVE_ENTRIES rows *and* traversal entries run
        on scalars, one more of either on arrays — same rates."""
        calls = kernel_calls
        bound = SMALL_SOLVE_ENTRIES
        capacity = {"a": 7.0, "b": 3.0}
        linked = bound // 2 + 1  # rows with links; link-less ones follow
        matrix = FlowLinkMatrix.from_paths(
            capacity,
            [["a", "b"]] * (bound // 2) + [["a"]] + [[]] * (bound + 1))
        caps = np.full(matrix.num_flows, 0.5)
        for active, expected in [
                (np.arange(bound // 2), "_waterfill_scalars"),
                (np.arange(linked), "_waterfill_arrays"),
                (np.arange(linked, linked + bound), "_waterfill_scalars"),
                (np.arange(linked, linked + bound + 1), "_waterfill_arrays"),
                (None, "_waterfill_arrays"),
                (np.empty(0, dtype=int), None)]:
            del calls[:]
            rates = waterfill(matrix, demands=caps, active=active)
            assert calls == ([expected] if expected else [])
            rows = np.arange(matrix.num_flows) if active is None else active
            if rows.size:
                for kernel in (_waterfill_scalars, _waterfill_arrays):
                    assert np.array_equal(
                        rates, kernel(matrix, caps[rows], rows, None))


@st.composite
def _class_workloads(draw):
    """Flows grouped in classes (same links, same cap) over a few links.

    Capacities and caps come from small sets of inexact binary
    fractions, so that equal shares — the ties the column order breaks —
    are common and a different freezing order shows in the low bits;
    paths are sampled with
    replacement (loop paths: traversal multiplicity times row
    multiplicity) from a small pool, so the same path under two caps
    (two classes that must not merge) is common too.
    """
    links = [f"l{j}" for j in range(draw(st.integers(1, 5)))]
    capacity = {link: draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.1, 10 / 3]))
                for link in links}
    pool = draw(st.lists(st.lists(st.sampled_from(links), min_size=1,
                                  max_size=4), min_size=1, max_size=4))
    classes = draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1),
                  st.sampled_from([0.05, 0.1, 0.35, np.inf])),
        min_size=1, max_size=6, unique=True))
    flow_class = draw(st.lists(st.integers(0, len(classes) - 1),
                               min_size=1, max_size=14))
    active = draw(st.lists(st.booleans(), min_size=len(flow_class),
                           max_size=len(flow_class)))
    paths = [pool[classes[c][0]] for c in flow_class]
    caps = np.array([classes[c][1] for c in flow_class])
    return (capacity, paths, caps, np.array(flow_class),
            np.flatnonzero(active))


class TestWaterfillOverClasses:
    @settings(max_examples=300, deadline=None)
    @given(_class_workloads())
    def test_class_rows_with_multiplicity_equal_per_flow_rows(self, case):
        """One row per class weighted by its active members ≡ one row per
        flow ≡ the oracle, bit for bit — including active subsets whose
        first class member is inactive (rows must then sort by the first
        *active* member)."""
        capacity, paths, caps, flow_class, active = case
        expected = oracle_allocation(
            capacity, [paths[i] for i in active], caps[active])
        per_flow = FlowLinkMatrix.from_paths(capacity, paths)
        assert np.array_equal(
            waterfill(per_flow, demands=caps, active=active), expected)
        # The engine's step: rows in first-candidate order, each solve
        # over the rows present, in first-active-member order.
        row_of_flow, lead = first_appearance_rows(flow_class,
                                                  int(flow_class.max()) + 1)
        matrix = FlowLinkMatrix.from_paths(capacity,
                                           [paths[i] for i in lead])
        assert matrix.link_keys == per_flow.link_keys
        rows = row_of_flow[active]
        members = np.bincount(rows, minlength=matrix.num_flows)
        slot, first = first_appearance_rows(rows, matrix.num_flows)
        solved = rows[first]
        rates = waterfill(matrix, demands=caps[lead], active=solved,
                          multiplicity=members[solved])[slot]
        assert np.array_equal(rates, expected)
        assert np.array_equal(matrix.link_loads(rates, rows),
                              per_flow.link_loads(expected, active))

    def test_rows_sort_by_first_active_member(self):
        """Class A's first flow is inactive, so B's link comes first in
        the per-flow numbering; solving A before B (first-*candidate*
        order) breaks the l0/l3 tie the other way and moves low bits."""
        capacity = {"l0": 0.3, "l3": 0.9}
        matrix = FlowLinkMatrix.from_paths(
            capacity, [["l0", "l3"], ["l3", "l3"]])  # rows A, B
        rows = np.array([1, 1, 0, 0])  # flows 1..4 of A B B A A A
        expected = oracle_allocation(
            capacity, [["l3", "l3"]] * 2 + [["l0", "l3"]] * 2)
        twice = np.array([2, 2])
        by_first_active = waterfill(matrix, active=np.array([1, 0]),
                                    multiplicity=twice)[[0, 0, 1, 1]]
        by_first_candidate = waterfill(matrix, active=np.array([0, 1]),
                                       multiplicity=twice)[[1, 1, 0, 0]]
        assert np.array_equal(by_first_active, expected)
        assert not np.array_equal(by_first_candidate, expected)
        np.testing.assert_allclose(by_first_candidate, expected, rtol=1e-15)
        assert np.array_equal(
            first_appearance_rows(rows, 2)[1], [0, 2])

    def test_first_appearance_rows_is_the_dense_columns(self):
        rng = np.random.default_rng(5)
        for size in (0, 1, 7, 200):
            ids = rng.integers(0, 12, size=size)
            rows, first = first_appearance_rows(ids, 12)
            columns, codes = first_appearance_columns(ids)
            assert np.array_equal(rows, columns)
            assert np.array_equal(ids[first], codes)
            assert (np.diff(first) > 0).all()

    def test_mixed_caps_on_one_pair_are_two_classes(self, small_network):
        flows = [FluidFlow(0, 3), FluidFlow(0, 3, demand_bps=1e6),
                 FluidFlow(0, 3), FluidFlow(0, 3, demand_bps=1e6)]
        simulation = FluidSimulation(small_network, flows)
        state = simulation.start_run(2.0)
        assert state.flow_class.tolist() == [0, 1, 0, 1]
        result = simulation.finish(simulation.advance(state))
        assert result.flow_rates_bps[0].tolist() == [4e6, 1e6, 4e6, 1e6]
        assert_result_matches_oracle(result, flows)


class TestEngineKernelParity:
    """FluidSimulation must agree bit-for-bit with the pure-Python
    oracle recomputed from its own recorded paths."""

    def _run(self, network, flows, **kwargs):
        sim = FluidSimulation(network, flows, **kwargs)
        return sim.run(duration_s=4.0, step_s=2.0)

    def test_static_scenario(self, small_network):
        flows = [FluidFlow(0, 3), FluidFlow(1, 4), FluidFlow(2, 5),
                 FluidFlow(3, 0, demand_bps=2e6)]
        result = self._run(small_network, flows, link_capacity_bps=10e6)
        assert (result.flow_rates_bps > 0.0).all()
        assert_result_matches_oracle(result, flows)

    def test_dynamic_workload(self, small_network):
        flows = [FluidFlow(0, 3), FluidFlow(1, 4, start_s=1.0,
                                            size_bytes=500_000),
                 FluidFlow(2, 5, size_bytes=2_000_000),
                 FluidFlow(4, 1, start_s=3.0, size_bytes=100_000)]
        result = self._run(small_network, flows, link_capacity_bps=10e6)
        assert_result_matches_oracle(result, flows)
        # Pinned to what both kernels produced before the Python step
        # was deleted (reprs round-trip float64 exactly).
        assert result.flow_delivered_bits.tolist() == [
            40000000.0, 3999999.999999999, 16000000.0, 800000.0]
        assert np.array_equal(
            result.flow_fct_s,
            [np.nan, 0.3999999999999999, 1.6, 0.08000000000000007],
            equal_nan=True)
        assert result.perf["allocations_solved"] == 7.0

    def test_capacity_overrides(self, small_network):
        flows = [FluidFlow(0, 3), FluidFlow(1, 4)]
        path = RoutingEngine(small_network).path(
            small_network.snapshot(0.0), 0, 3)
        device = path_devices(path, small_network.num_satellites)[0]
        overrides = {device: 1e6}
        result = self._run(small_network, flows, link_capacity_bps=10e6,
                           capacity_overrides=overrides)
        assert result.flow_rates_bps[0, 0] == 1e6
        assert_result_matches_oracle(result, flows,
                                     capacity_overrides=overrides)

    def test_unknown_kernel_rejected(self, small_network):
        # One allocator, no switch: the old ``kernel=`` option is gone.
        with pytest.raises(TypeError):
            FluidSimulation(small_network, [FluidFlow(0, 1)],
                            kernel="reference")


# ----------------------------------------------------------------------
# AIMD on the shared engine skeleton: parity pins and the inherited API
# ----------------------------------------------------------------------

#: sha256 of every bit-parity output of four AIMD runs, recorded on the
#: commit before AIMD moved onto FluidSimulation's loop (its own 300-line
#: ``run``); the refactor must reproduce them unchanged.
AIMD_PINS = {
    "moving": {
        "flow_rates_bps":
            "e003a57adc26787aa55146013fe59d5d179707b6721815d03aaa648c20dca379",
        "flow_paths":
            "0f3a2cf01788b7dd1412a64c724bc0bd5afaee2faf37e8eaded88f995a2a6460",
        "device_load_bps":
            "8a8f7b9a242eda4445576534ca3020d6bb744f8a728c6c1c672a3b5f23839aa2",
        "flow_fct_s":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        "flow_delivered_bits":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    },
    "frozen": {
        "flow_rates_bps":
            "26fb46c4f04909dcd60d49ab0338ef7e5fe2f3f862e8457603f08f3d360c0d1f",
        "flow_paths":
            "0a5c6900321f056f1b43ef4cf64dd10f92b6667d19b1e2e1b3b7d921eaec5e83",
        "device_load_bps":
            "8c82e941eb71ff1b7afa7a7c131455cd27cfc0f4ccfc2d1b73d5a566f30721f9",
        "flow_fct_s":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        "flow_delivered_bits":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    },
    "faults": {
        "flow_rates_bps":
            "ba508a6a288ed9532e7552f19ebae95b8d7b694a40f6c5362e2dcf742715aa3b",
        "flow_paths":
            "4e8dc058fb3cd45e3947321d6a538ebbce7f408c24adf529decd43a0347ff456",
        "device_load_bps":
            "ab9b72aa99ef54ab5ba4d9daefd15f70506e7239b7ac2879531660c827c30c82",
        "flow_fct_s":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        "flow_delivered_bits":
            "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    },
    "churn": {
        "flow_rates_bps":
            "e77d02dbb085a35ecf09fe89e7bbb63963624f97d38fc011b0ecb2ebe361d13a",
        "flow_paths":
            "3445094b0f5bfa2aaf6ff2ff9ae8a0841868185f502b18e01a9f37c58009c5b1",
        "device_load_bps":
            "f2a48d118d2de5c4a5c0b4b3b70eb86d3ca43c20bd6607cdb71a93bee0810862",
        "flow_fct_s":
            "5c960ce846c5ffadd897dd89d5cb1619d334815bc0d7c6f442c5bd925b8006fe",
        "flow_delivered_bits":
            "9501bcb2e5f561ab45fed67cad84b628dc92135fb42a530a0c7837956a549bf4",
    },
}

_NO_FCT = hashlib.sha256(b"None").hexdigest()


def _result_digests(result):
    """sha256 per output (node ids and device keys normalized to python
    ints, loads as float hex, so only values and order are hashed)."""
    def sha(data):
        return hashlib.sha256(
            data.encode() if isinstance(data, str) else data).hexdigest()

    def array(values):
        return "None" if values is None else np.asarray(
            values, dtype=float).tobytes()
    paths = [[None if path is None else [int(node) for node in path]
              for path in row] for row in result.flow_paths]
    loads = [[((str(key[0]), int(key[1])), float(load).hex())
              for key, load in step.items()]
             for step in result.device_load_bps]
    return {"flow_rates_bps": sha(array(result.flow_rates_bps)),
            "flow_paths": sha(repr(paths)),
            "device_load_bps": sha(repr(loads)),
            "flow_fct_s": sha(array(result.flow_fct_s)),
            "flow_delivered_bits": sha(array(result.flow_delivered_bits))}


@pytest.fixture(scope="module")
def kuiper_offset_network():
    return Hypatia.from_shell_name("K1", num_cities=100,
                                   epoch_offset_s=10.0).network


@pytest.fixture
def aimd_scenario(request, kuiper_offset_network, small_constellation,
                  small_stations, small_network):
    """``(simulation, duration_s)`` of one pinned AIMD scenario."""
    name = request.param
    if name in ("moving", "frozen"):
        flows = [FluidFlow(src, dst)
                 for src, dst in random_permutation_pairs(100)]
        return AimdFluidSimulation(
            kuiper_offset_network, flows,
            freeze_topology_at_s=5.0 if name == "frozen" else None), 30.0
    if name == "faults":
        # An ISL of flow 0's initial path is cut (the backlog it holds
        # can no longer drain), gid 1 turns lossy and gid 2 goes dark.
        faults = FaultSchedule([
            FaultEvent.isl_cut(35, 34, 3.0, 9.0),
            FaultEvent.packet_loss(5.0, 12.0, 0.4, gid=1),
            FaultEvent.gsl_cut(2, 7.0, 10.0)], seed=3)
        network = LeoNetwork(small_constellation, small_stations,
                             min_elevation_deg=10.0, faults=faults)
        pairs = [(0, 3), (1, 4), (2, 5), (3, 1), (4, 0), (5, 2), (0, 3)]
        return AimdFluidSimulation(
            network, [FluidFlow(src, dst) for src, dst in pairs]), 16.0
    assert name == "churn"
    workload = WorkloadSchedule([
        FlowRequest(0.0, 0, 3, 250_000),
        FlowRequest(0.35, 1, 4, 2_000_000),
        FlowRequest(1.0, 0, 3, 400_000),
        FlowRequest(2.5, 2, 5, 125_000),
        FlowRequest(2.55, 4, 1, 3_000_000),
        FlowRequest(4.75, 5, 2, 60_000),
        FlowRequest(9.2, 3, 0, 900_000),
        FlowRequest(50.0, 3, 0, 900_000)], seed=0)
    return AimdFluidSimulation(
        small_network, [FluidFlow(5, 0)] + workload.as_fluid_flows()), 14.0


def _assert_same_result(got, expected):
    assert np.array_equal(got.flow_rates_bps, expected.flow_rates_bps)
    assert got.flow_paths == expected.flow_paths
    assert ([list(loads.items()) for loads in got.device_load_bps]
            == [list(loads.items()) for loads in expected.device_load_bps])
    for name in ("flow_fct_s", "flow_delivered_bits", "flow_offered_bits"):
        a, b = getattr(got, name), getattr(expected, name)
        assert (a is None and b is None) or np.array_equal(
            a, b, equal_nan=True)


class TestAimdOnSharedSkeleton:
    def test_is_a_fluid_simulation_without_its_own_loop(self):
        assert issubclass(AimdFluidSimulation, FluidSimulation)
        for inherited in ("run", "start_run", "advance", "finish",
                          "_paths_at", "_record_snapshot"):
            assert inherited not in vars(AimdFluidSimulation)

    @pytest.mark.parametrize("aimd_scenario", list(AIMD_PINS),
                             indirect=True)
    def test_parity_pin(self, request, aimd_scenario):
        simulation, duration_s = aimd_scenario
        result = simulation.run(duration_s, step_s=1.0)
        name = request.node.callspec.params["aimd_scenario"]
        assert _result_digests(result) == AIMD_PINS[name]
        assert (AIMD_PINS[name]["flow_fct_s"] == _NO_FCT) == (name != "churn")

    @pytest.mark.parametrize("aimd_scenario", list(AIMD_PINS),
                             indirect=True)
    def test_sliced_advance_through_pickle_matches_run(self, aimd_scenario):
        """No transient lives outside AimdRunState: stepping one snapshot
        at a time, with the state pickled halfway, is ``run()``."""
        simulation, duration_s = aimd_scenario
        expected = simulation.run(duration_s, step_s=1.0)
        state = simulation.start_run(duration_s, step_s=1.0)
        assert isinstance(state, AimdRunState)
        steps = len(state.times)
        for step in range(steps):
            if step == steps // 2:
                state = pickle.loads(pickle.dumps(state))
            simulation.advance(state, max_steps=1)
        assert state.done
        _assert_same_result(simulation.finish(state), expected)


# ----------------------------------------------------------------------
# Max-min over flow classes: parity pins recorded on the per-flow engine
# ----------------------------------------------------------------------

#: sha256 of every output of four duplicate-heavy max-min runs, recorded
#: on the commit before the engine solved one row per flow class (every
#: flow its own matrix row); the class step must reproduce them unchanged.
#: "straddle" was recorded on the commit before ``waterfill`` had a
#: scalar kernel: its solves lie on both sides of SMALL_SOLVE_ENTRIES.
MAXMIN_PINS = {
    "churn": {
        "flow_rates_bps":
            "2d9b4e85dfacd27896f0f6b9ec25c8fe6c386051978adeb5b9d7a98db5b3e46a",
        "flow_paths":
            "d48a976d861e96e747948d1731e2458b14b99708b661e031e84ce35573bec0d7",
        "device_load_bps":
            "c1756e394e926e8e44041921ec6ac475332f768f45952bda5cf5620cec54f08d",
        "flow_fct_s":
            "55fd00395fbe6ea0b07735b8f5eb6a809a7b6370d17cf0d9a29af14a0d7c3de0",
        "flow_delivered_bits":
            "c5151999db84bbb871229b5ea0acbe3fc9e474dd9845dcf9b2188322926b60d2",
    },
    "frozen": {
        "flow_rates_bps":
            "2e2fc2dfa75546720efcf4b48b44f55b7b20e222899a152d54ee170f3fd7f3cc",
        "flow_paths":
            "8a02a52c4f3ed515fbe1a6054f4d1f3c3e1564f02e32e5f6a47ba7e396ee2a4e",
        "device_load_bps":
            "068b589829b088d9015712e390d697d5d87ce20a5f296249f1f0d1dd076d8abd",
        "flow_fct_s":
            "15599dd59dd19e6f1f70b8f89233e417c998b1cc19cd1da816895d3f3a476712",
        "flow_delivered_bits":
            "cd802d3d5fe4c24492cfd640a021aff6dbf5bfa5f1ba83831e8121f62d5ea36c",
    },
    "faults": {
        "flow_rates_bps":
            "045f1c3ffa3c0132e2ee72cd8e1edd142fcef72ea5fb141af1859f6da698fd43",
        "flow_paths":
            "c64e60e65ff8f3554bca1629db0e4d9fd3e7315f42168f8a441629eb645aff80",
        "device_load_bps":
            "7cb29a390fc54d52a668324dea62df21c615053a47e33a7061e27e890ab4f78a",
        "flow_fct_s":
            "195488e2d6519df21c459977d1d5f83e5b1566e63791911ca497faef80c9dd45",
        "flow_delivered_bits":
            "38a1e013528b368ce1c1425fa8371b302ab80ff4550a099983cdf7790ac2f660",
    },
    "frozen_faults": {
        "flow_rates_bps":
            "aad46cbd2066227c83268f3badf5b0b0910b00cbd38bd7b4b4e18769b297a9e5",
        "flow_paths":
            "e757e7cc3bd7860dea6b89b3ef1f81979b22b9292d36c097acf9b95504aa2764",
        "device_load_bps":
            "cb24c6227ae1133af57b27af4725ac361897c38c8c024724e0d5b984a766072f",
        "flow_fct_s":
            "6ab147d4c89c0081c15acca9d1293812088aed643b4ae81244028b7b90dd893f",
        "flow_delivered_bits":
            "99f4aadab4a60a3192549d60d6deab4ddd70fefe2f88b878ac85d1c1a761e0e5",
    },
    "straddle": {
        "flow_rates_bps":
            "1855c1171826fa79a56b0bb39e202658df67545424ef1a388b9eea15560aadef",
        "flow_paths":
            "dac4f2484be663f7e4187a73569d817f852830e8ba7bc304d68989c90fad7877",
        "device_load_bps":
            "8ca1d21b26a48fef0f287a302d754f6577ab7a9d3149c3daefceef087adb316c",
        "flow_fct_s":
            "85ad3c3319be6786d0ad47bd0ba5ee3b82868b3a740a6e6333307cb0335e25be",
        "flow_delivered_bits":
            "57b933912fcb730fa44572f9d656b0bdf811771947d9921638a2de9f57193575",
    },
}


def duplicate_heavy_flows(pairs, horizon_s):
    """~200 flows over ``pairs``: many per pair, two caps per pair, finite
    sizes, arrivals off the snapshot grid, in an order that puts late
    starters ahead of early ones inside a class."""
    rng = np.random.default_rng(18)
    flows = [FluidFlow(*pairs[0]), FluidFlow(*pairs[0], demand_bps=1.5e6),
             FluidFlow(*pairs[1])]
    for _ in range(200):
        src, dst = pairs[int(rng.integers(len(pairs)))]
        flows.append(FluidFlow(
            src, dst,
            demand_bps=1.5e6 if rng.random() < 0.4 else np.inf,
            size_bytes=float(rng.integers(20_000, 1_500_000)),
            start_s=(float(np.round(rng.uniform(0.0, horizon_s), 2))
                     if rng.random() < 0.8 else 0.0)))
    return flows


def straddling_flows(pairs):
    """Two finite flows per pair over 70 K1 pairs (~9 hops each): five
    pairs are busy from t = 0, the rest join one by one inside step 0,
    so that step's solves grow from ~35 traversal entries to ~660 —
    through ``SMALL_SOLVE_ENTRIES`` — and a second wave joins the same
    classes from t = 2 while the first drains back below the bound."""
    rng = np.random.default_rng(19)
    flows = []
    for wave_start in (0.0, 2.0):
        for i, (src, dst) in enumerate(pairs):
            flows.append(FluidFlow(
                src, dst,
                size_bytes=float(rng.integers(400_000, 2_500_000)),
                start_s=wave_start + (0.0 if i < 5 and not wave_start
                                      else 0.2 + 0.01 * i)))
    return flows


@pytest.fixture
def maxmin_scenario(request, kuiper_offset_network, small_constellation,
                    small_stations):
    """``(network, flows, freeze_at_s, duration_s)`` of one pinned
    max-min scenario: 203 flows in 16-20 classes, or "straddle"'s 140
    flows in 70."""
    name = request.param
    if name == "straddle":
        return (kuiper_offset_network,
                straddling_flows(random_permutation_pairs(100)[:70]),
                None, 8.0)
    if name in ("churn", "frozen"):
        # K1: three of the ten pairs change path inside the 20 s.
        flows = duplicate_heavy_flows(random_permutation_pairs(100)[:10],
                                      18.0)
        return (kuiper_offset_network, flows,
                5.0 if name == "frozen" else None, 20.0)
    # The cut ISL is on pair (0, 3)'s path; frozen, it and the dark GSL
    # stay on paths as zero-capacity devices.
    faults = FaultSchedule([
        FaultEvent.isl_cut(35, 34, 3.0, 9.0),
        FaultEvent.packet_loss(2.0, 8.0, 0.4, gid=1),
        FaultEvent.gsl_cut(2, 5.0, 7.0)], seed=3)
    network = LeoNetwork(small_constellation, small_stations,
                         min_elevation_deg=10.0, faults=faults)
    pairs = [(0, 3), (1, 4), (2, 5), (3, 0), (4, 1), (5, 2), (0, 5), (3, 1)]
    return (network, duplicate_heavy_flows(pairs, 9.0),
            1.0 if name == "frozen_faults" else None, 10.0)


@pytest.mark.parametrize("maxmin_scenario", list(MAXMIN_PINS), indirect=True)
class TestMaxMinOverFlowClasses:
    def test_parity_pin(self, request, maxmin_scenario):
        network, flows, freeze_at_s, duration_s = maxmin_scenario
        result = FluidSimulation(
            network, flows,
            freeze_topology_at_s=freeze_at_s).run(duration_s, step_s=1.0)
        name = request.node.callspec.params["maxmin_scenario"]
        assert _result_digests(result) == MAXMIN_PINS[name]
        assert np.isfinite(result.flow_fct_s).sum() > 50

    def test_sliced_advance_through_pickle_matches_run(self,
                                                       maxmin_scenario):
        network, flows, freeze_at_s, duration_s = maxmin_scenario
        simulation = FluidSimulation(network, flows,
                                     freeze_topology_at_s=freeze_at_s)
        expected = simulation.run(duration_s, step_s=1.0)
        state = simulation.start_run(duration_s, step_s=1.0)
        for step in range(len(state.times)):
            if step == len(state.times) // 2:
                simulation, state = pickle.loads(
                    pickle.dumps((simulation, state)))
            simulation.advance(state, max_steps=1)
        _assert_same_result(simulation.finish(state), expected)

    def test_flows_joining_existing_classes_mid_run(self, maxmin_scenario):
        """Attaching the late arrivals at step k — every one lands in a
        class an earlier flow already opened — is the build from t = 0."""
        network, flows, freeze_at_s, duration_s = maxmin_scenario
        attach_step = int(duration_s // 3)
        early = [flow for flow in flows if flow.start_s < attach_step]
        late = [flow for flow in flows if flow.start_s >= attach_step]

        def classes(some):
            return {(flow.src_gid, flow.dst_gid, flow.demand_bps)
                    for flow in some}
        assert len(late) > 50 and classes(late) <= classes(early)
        expected = FluidSimulation(
            network, early + late,
            freeze_topology_at_s=freeze_at_s).run(duration_s, step_s=1.0)
        simulation = FluidSimulation(network, early,
                                     freeze_topology_at_s=freeze_at_s)
        state = simulation.start_run(duration_s, step_s=1.0)
        simulation.advance(state, max_steps=attach_step)
        assert simulation.extend_flows(state, late) == len(early)
        simulation.advance(state)
        _assert_same_result(simulation.finish(state), expected)


@pytest.mark.parametrize("maxmin_scenario", ["straddle"], indirect=True)
def test_one_step_solves_on_both_sides_of_the_small_solve_bound(
        maxmin_scenario, kernel_calls):
    """Inside single steps the active set crosses SMALL_SOLVE_ENTRIES —
    upwards as flows arrive, downwards as they drain — so one sub-event
    loop mixes scalar- and array-kernel solves; every recorded row still
    equals the oracle (and the FCTs the pre-scalar-kernel pin above)."""
    network, flows, _, duration_s = maxmin_scenario
    simulation = FluidSimulation(network, flows)
    state = simulation.start_run(duration_s, step_s=1.0)
    kernels_per_step = []
    while not state.done:
        del kernel_calls[:]
        simulation.advance(state, max_steps=1)
        kernels_per_step.append(len(set(kernel_calls)))
    assert kernels_per_step[0] == 2 and kernels_per_step[-2] == 2
    assert 1 in kernels_per_step
    assert_result_matches_oracle(simulation.finish(state), flows)


class TestExtendFlows:
    """Build-time and attach-time flow construction are one method."""

    LATE = [FluidFlow(4, 1, start_s=3.0, size_bytes=900_000.0),
            FluidFlow(0, 3, start_s=3.4, size_bytes=300_000.0),
            FluidFlow(2, 5, start_s=6.0)]

    @pytest.mark.parametrize("engine", [FluidSimulation,
                                        AimdFluidSimulation])
    @pytest.mark.parametrize("freeze_at_s", [None, 1.0])
    def test_extend_at_step_k_equals_build_from_t0(self, small_network,
                                                   engine, freeze_at_s):
        base = [FluidFlow(0, 3), FluidFlow(1, 4, size_bytes=2_000_000.0),
                FluidFlow(3, 0, start_s=1.5, size_bytes=500_000.0)]
        expected = engine(
            small_network, base + self.LATE,
            freeze_topology_at_s=freeze_at_s).run(8.0, step_s=1.0)
        simulation = engine(small_network, base,
                            freeze_topology_at_s=freeze_at_s)
        state = simulation.start_run(8.0, step_s=1.0)
        simulation.advance(state, max_steps=3)
        assert simulation.extend_flows(state, self.LATE) == len(base)
        assert state.rates.shape == (8, 6)
        assert all(len(row) == 6 for row in state.all_paths)
        simulation.advance(state)
        _assert_same_result(simulation.finish(state), expected)

    def test_start_run_is_repeatable(self, small_network):
        simulation = FluidSimulation(small_network, [FluidFlow(0, 3)])
        first = simulation.run(2.0)
        again = simulation.run(2.0)
        assert len(simulation.flows) == 1
        _assert_same_result(again, first)
