"""Tests for the fluid engines: max-min allocation, AIMD dynamics."""

import numpy as np
import pytest

from repro.fluid.aimd import AimdFluidSimulation
from repro.fluid.engine import FluidFlow, FluidSimulation, path_devices
from repro.fluid.maxmin import max_min_fair_allocation
from repro.fluid.vectorized import (FlowLinkMatrix,
                                    max_min_fair_allocation_vectorized,
                                    waterfill)

from _fluid_oracle import assert_result_matches_oracle

BOTH_KERNELS = [max_min_fair_allocation, max_min_fair_allocation_vectorized]


class TestMaxMin:
    def test_single_flow_takes_link(self):
        rates = max_min_fair_allocation({"l": 10.0}, [["l"]])
        np.testing.assert_allclose(rates, [10.0])

    def test_equal_split(self):
        rates = max_min_fair_allocation({"l": 9.0}, [["l"], ["l"], ["l"]])
        np.testing.assert_allclose(rates, [3.0, 3.0, 3.0])

    def test_classic_three_link_example(self):
        # Flow A uses l1+l2, flow B uses l1, flow C uses l2.
        # l1 = 10, l2 = 4: A and C split l2 at 2 each; B then gets 8.
        capacity = {"l1": 10.0, "l2": 4.0}
        flows = [["l1", "l2"], ["l1"], ["l2"]]
        rates = max_min_fair_allocation(capacity, flows)
        np.testing.assert_allclose(rates, [2.0, 8.0, 2.0])

    def test_demand_cap(self):
        rates = max_min_fair_allocation({"l": 10.0}, [["l"], ["l"]],
                                        demands=[1.0, 100.0])
        np.testing.assert_allclose(rates, [1.0, 9.0])

    def test_no_link_flow_needs_finite_demand(self):
        with pytest.raises(ValueError):
            max_min_fair_allocation({}, [[]])
        rates = max_min_fair_allocation({}, [[]], demands=[5.0])
        np.testing.assert_allclose(rates, [5.0])

    def test_no_capacity_exceeded(self):
        rng = np.random.default_rng(0)
        links = {f"l{i}": float(rng.uniform(1, 10)) for i in range(8)}
        flows = []
        link_names = list(links)
        for _ in range(20):
            k = rng.integers(1, 4)
            flows.append(list(rng.choice(link_names, size=k, replace=False)))
        rates = max_min_fair_allocation(links, flows)
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
        rates = max_min_fair_allocation(capacity, flows)
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
            max_min_fair_allocation({"l": 1.0}, [["x"]])

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            max_min_fair_allocation({"l": -1.0}, [["l"]])

    def test_empty_flows(self):
        assert len(max_min_fair_allocation({"l": 1.0}, [])) == 0

    def test_zero_capacity_link(self):
        rates = max_min_fair_allocation({"l": 0.0}, [["l"]])
        np.testing.assert_allclose(rates, [0.0])

    def test_zero_capacity_link_does_not_starve_others(self):
        """Flows crossing a dead link get 0; disjoint flows are unaffected."""
        capacity = {"dead": 0.0, "live": 10.0}
        flows = [["dead"], ["dead", "live"], ["live"]]
        rates = max_min_fair_allocation(capacity, flows)
        np.testing.assert_allclose(rates, [0.0, 0.0, 10.0])

    def test_demand_exactly_at_fair_share(self):
        """A demand equal to the link's equal split freezes at that rate
        and leaves nothing stranded: the other flow takes the rest."""
        rates = max_min_fair_allocation({"l": 10.0}, [["l"], ["l"]],
                                        demands=[5.0, np.inf])
        np.testing.assert_allclose(rates, [5.0, 5.0])

    def test_all_flows_demand_capped(self):
        """When every demand is below any link share, rates == demands and
        capacity goes unused."""
        rates = max_min_fair_allocation({"l": 100.0},
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
        assert flow.is_finite
        assert not FluidFlow(0, 1).is_finite


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
            expected = max_min_fair_allocation(capacity, flow_links,
                                               demands)
            got = max_min_fair_allocation_vectorized(capacity, flow_links,
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
        expected = max_min_fair_allocation(
            capacity, [flow_links[i] for i in active], demands[active])
        assert np.array_equal(rates, expected)

    def test_from_paths_rejects_unknown_link(self):
        with pytest.raises(ValueError):
            FlowLinkMatrix.from_paths({"l": 1.0}, [["l", "x"]])

    def test_error_parity_with_oracle(self):
        # Infinite-demand flow with no links: both kernels refuse.
        with pytest.raises(ValueError):
            max_min_fair_allocation({}, [[]])
        with pytest.raises(ValueError):
            max_min_fair_allocation_vectorized({}, [[]])

    def test_link_loads_count_multiplicity(self):
        matrix = FlowLinkMatrix.from_paths({"a": 10.0},
                                           [["a", "a"], ["a"]])
        loads = matrix.link_loads(np.array([2.0, 3.0]))
        np.testing.assert_allclose(loads, [7.0])


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
        paths = FluidSimulation(small_network, flows)._paths_at(
            small_network.snapshot(0.0))
        device = path_devices(paths[0], small_network.num_satellites)[0]
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
