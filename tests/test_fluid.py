"""Tests for the fluid engines: max-min allocation, AIMD dynamics."""

import hashlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Hypatia, random_permutation_pairs
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.fluid.aimd import AimdFluidSimulation, AimdRunState
from repro.fluid.engine import (_TIME_EPS_S, DeviceIndex, FluidFlow,
                                FluidSimulation, decode_device,
                                first_appearance_columns,
                                first_appearance_rows, path_devices)
from repro.routing.engine import UNREACHABLE, PathWalk, RoutingEngine
from repro.topology.network import LeoNetwork
from repro.fluid import vectorized
from repro.fluid.vectorized import (SMALL_SOLVE_ENTRIES, FlowLinkMatrix,
                                    _waterfill_arrays, _waterfill_scalars,
                                    max_min_fair_allocation, waterfill,
                                    waterfill_lists)

from _fluid_oracle import (RescanningFluidSimulation,
                           assert_result_matches_oracle, go_cold,
                           setdefault_classes)
from _fluid_oracle import first_appearance_columns as oracle_columns
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
                                link_capacity_bps=0.0)

    @pytest.mark.parametrize("late", [
        FluidFlow(0, 3, start_s=1.0), FluidFlow(0, 3, size_bytes=1e6)],
        ids=["late", "finite"])
    def test_refuses_a_workload_flow(self, small_network, late):
        """AIMD models long-running flows from t = 0 only: a late or
        finite flow is refused at construction and at extend time,
        pointing at the max-min engine."""
        with pytest.raises(ValueError, match="max-min"):
            AimdFluidSimulation(small_network, [FluidFlow(1, 4), late])
        simulation = AimdFluidSimulation(small_network, [FluidFlow(1, 4)])
        state = simulation.start_run(4.0)
        with pytest.raises(ValueError, match="max-min"):
            simulation.extend_flows(state, [late])
        assert len(simulation.flows) == len(state.starts) == 1


class TestNonFiniteInputs:
    """A NaN or infinite capacity or freeze time is refused when the
    engine is built.  Max-min used to fail mid-run (``NaN capacity on
    link``, "some flows are unconstrained"), AIMD returned NaN or inf
    rates, a NaN freeze ran every flow disconnected and an infinite one
    died in the orbit propagator."""

    ENGINES = [FluidSimulation, AimdFluidSimulation]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("capacity", [np.nan, np.inf, -1.0, 0.0])
    def test_capacity(self, small_network, engine, capacity):
        with pytest.raises(ValueError, match="capacity must be finite"):
            engine(small_network, [FluidFlow(0, 3)],
                   link_capacity_bps=capacity)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("freeze_at_s", [np.nan, np.inf, -np.inf])
    def test_freeze_time(self, small_network, engine, freeze_at_s):
        with pytest.raises(ValueError, match="freeze time must be finite"):
            engine(small_network, [FluidFlow(0, 3)],
                   freeze_topology_at_s=freeze_at_s)


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
    def _result(num_flows=0, **overrides):
        """A two-snapshot result whose ``num_flows`` flows were never
        candidates: no path, rate 0."""
        from repro.fluid.engine import FluidResult, SnapshotRecord
        none = np.empty(0, dtype=np.int64)
        unrouted = SnapshotRecord(none, none, np.empty(0, dtype=bool),
                                  np.empty(0), [])
        defaults = dict(
            times_s=np.array([0.0, 1.0]),
            num_flows=num_flows,
            snapshots=[unrouted, unrouted],
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
        result = self._result(num_flows=3)
        assert result.flow_paths == [[None] * 3, [None] * 3]
        assert not result.flow_rates_bps.any()
        summary = result.perf_summary()
        assert summary["flows"] == 3.0
        assert summary["flows_ever_connected"] == 0.0
        assert summary["peak_utilization"] == 0.0

    @pytest.mark.parametrize("shape", [(5, 7), (40, 3_000), (3, 70_000)])
    def test_mean_rate_equals_the_expanded_mean(self, shape):
        """``mean_rate_bps`` adds the class records' rates a few rows at a
        time, in numpy's pairwise order over the whole ``(T, F)`` array:
        the bits of ``flow_rates_bps.mean()``, across blocks that cut
        rows.  ``FluidResult._rates_sum`` copies numpy's cut points (an
        implementation detail): a numpy that moves them fails here."""
        from repro.fluid.engine import SnapshotRecord
        num_snapshots, num_flows = shape
        rng = np.random.default_rng(num_flows)
        records = []
        for _ in range(num_snapshots):
            candidates = np.sort(rng.choice(num_flows, num_flows * 3 // 4,
                                            replace=False))
            rows = rng.integers(0, 50, candidates.size)
            records.append(SnapshotRecord(
                candidates, rows, rng.random(candidates.size) < 0.8,
                rng.random(50) * 1e7 / 3, [None] * 50))
        result = self._result(
            times_s=np.arange(num_snapshots, dtype=float),
            num_flows=num_flows, snapshots=records,
            device_load_bps=[{}] * num_snapshots)
        summary = result.perf_summary()
        assert summary["mean_rate_bps"] == float(
            result.flow_rates_bps.mean())
        assert summary["flows_ever_connected"] == float(
            (result.flow_rates_bps > 0.0).any(axis=0).sum())

    def test_empty_device_load(self):
        summary = self._result(device_load_bps=[]).perf_summary()
        assert "peak_utilization" not in summary

    def test_no_completions_reports_zero_fct(self):
        result = self._result(
            num_flows=1,
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


def _scalars(matrix, caps, rows, copies):
    """The list kernel called like ``_waterfill_arrays``: arrays in, the
    matrix's list view and lists passed on, an array out."""
    row_columns, capacity = matrix._as_lists()
    return np.array(_waterfill_scalars(
        row_columns, capacity, rows.tolist(), caps.tolist(),
        None if copies is None else copies.tolist()))


@pytest.fixture
def kernel_calls(monkeypatch):
    """The names of the kernels ``waterfill`` and ``waterfill_lists``
    (the fluid step's re-solves) ran, in order."""
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
                lambda: _scalars(
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
                for kernel in (_scalars, _waterfill_arrays):
                    assert np.array_equal(
                        rates, kernel(matrix, caps[rows], rows, None))
                del calls[:]
                assert waterfill_lists(matrix, rows.tolist(),
                                       caps[rows].tolist(),
                                       None) == rates.tolist()
                assert calls == [expected]


def _per_flow_loads(matrix, rates, rows):
    """Loads summed one traversal at a time on Python floats, flow by
    flow in traversal order — no blocks, no numpy."""
    loads = [0.0] * matrix.num_links
    for row, rate in zip(rows, rates):
        for col in matrix.link_index[
                matrix.indptr[row]:matrix.indptr[row + 1]].tolist():
            loads[col] += rate
    return np.array(loads)


class TestBlockedLinkLoads:
    """``link_loads`` adds block by block onto one array, blocks in flow
    order: the bits are those of one per-flow accumulation."""

    #: Row 0 crosses ``a`` twice (a loop path); row 2 has no entries.
    PATHS = [["a", "b", "a"], ["b", "c"], [], ["c", "a", "d"], ["d"]]

    @pytest.fixture
    def case(self):
        matrix = FlowLinkMatrix.from_paths(dict.fromkeys("abcd", 10.0),
                                           self.PATHS)
        rng = np.random.default_rng(3)
        # Runs of one row, so small blocks end inside a run.
        rows = np.repeat(rng.integers(0, len(self.PATHS), size=24),
                         rng.integers(1, 4, size=24))
        rates = rng.uniform(0.0, 1e7, size=rows.size)
        rates[::5] = 0.0
        return matrix, rows, rates

    @pytest.mark.parametrize("block", [1, 2, 3, None])
    def test_equal_to_a_per_flow_accumulation(self, monkeypatch, case,
                                              block):
        if block is not None:
            monkeypatch.setattr(vectorized, "LOAD_BLOCK_FLOWS", block)
        matrix, rows, rates = case
        expected = _per_flow_loads(matrix, rates, rows)
        # The rates' order shows in the low bits, so a block taken out of
        # order would too.
        assert (_per_flow_loads(matrix, rates[::-1], rows[::-1]).tobytes()
                != expected.tobytes())
        assert matrix.link_loads(rates, rows).tobytes() == expected.tobytes()
        assert (matrix.link_loads(rates, rows.tolist()).tobytes()
                == expected.tobytes())
        every = np.arange(matrix.num_flows)
        assert (matrix.link_loads(rates[:every.size]).tobytes()
                == _per_flow_loads(matrix, rates[:every.size],
                                   every).tobytes())

    @pytest.mark.parametrize("rates, rows", [
        ([1.0, 2.0, 99.0], None),
        ([1.0], None),
        ([1.0, 2.0], [1]),
        ([2.0], [0, 1]),
        ([[1.0, 2.0]], None),
    ])
    def test_misaligned_rates_are_refused(self, rates, rows):
        matrix = FlowLinkMatrix.from_paths({"a": 10.0}, [["a", "a"], ["a"]])
        with pytest.raises(ValueError, match="rates for"):
            matrix.link_loads(rates, rows)


PRODUCT_KERNELS = [pytest.param(_scalars, id="_waterfill_scalars"),
                   pytest.param(_waterfill_arrays, id="_waterfill_arrays")]


def _kernel_equals_oracle(kernel, capacity, flow_links, demands=None):
    """``kernel``'s rates over every row of ``flow_links``, asserted
    bit-equal to the oracle's."""
    matrix = FlowLinkMatrix.from_paths(capacity, flow_links)
    rows = np.arange(len(flow_links))
    caps = (np.full(rows.size, np.inf) if demands is None
            else np.asarray(demands, dtype=float))
    rates = kernel(matrix, caps, rows, None)
    expected = oracle_allocation(capacity, flow_links, demands)
    assert rates.tobytes() == expected.tobytes(), (rates, expected)
    return rates


@pytest.mark.parametrize("kernel", PRODUCT_KERNELS)
class TestPinnedKernelCases:
    """Edge cases of the array kernel's whole-array shares (a link whose
    weight reaches 0 gets residual +inf) and of its link → rows groups,
    each pinned on both product kernels against the oracle."""

    def test_zero_over_zero_share(self, kernel):
        """Y and X tie at share 2; Y, first in column order, is the
        bottleneck.  X's one flow freezes on its cap of 2 in the same
        event, when X's residual reaches exactly 0: X is then 0 / 0 and
        must drop out like any link whose weight reached 0."""
        rates = _kernel_equals_oracle(
            kernel, {"Y": 2.0, "X": 2.0, "Z": 10.0},
            [["Y"], ["X"], ["Z"]], demands=[np.inf, 2.0, np.inf])
        assert rates.tolist() == [2.0, 2.0, 10.0]

    def test_infinite_capacity_column_first(self, kernel):
        """The infinite link is column 0, beside a finite one: its share
        is +inf like a saturated link's, so a cap or the finite link
        binds first, and the last event is a cap with no finite share
        left."""
        rates = _kernel_equals_oracle(
            kernel, {"inf": np.inf, "a": 4.0},
            [["inf", "a"], ["inf"], ["inf"]],
            demands=[np.inf, 3.0, 6.0])
        assert rates.tolist() == [4.0, 3.0, 6.0]

    def test_row_crossing_the_bottleneck_twice(self, kernel):
        """Row 0 crosses ``a`` twice: it freezes once, its weight leaves
        both links once per traversal, and row 2 still gets ``b``'s
        remaining 10 - 2·2."""
        rates = _kernel_equals_oracle(
            kernel, {"a": 6.0, "b": 10.0},
            [["a", "b", "a"], ["a"], ["b"]])
        assert rates.tolist() == [2.0, 2.0, 8.0]

    def test_finite_caps_that_never_bind(self, kernel):
        """Every cap finite and far above any share, like the engine's
        1e9 elastic caps: the same rates as no caps at all."""
        rng = np.random.default_rng(37)
        capacity = {f"l{j}": float(rng.uniform(1.0, 9.0)) for j in range(12)}
        flow_links = [list(rng.choice(list(capacity), size=4))
                      for _ in range(80)]
        capped = _kernel_equals_oracle(kernel, capacity, flow_links,
                                       demands=np.full(80, 1e9))
        elastic = _kernel_equals_oracle(kernel, capacity, flow_links)
        assert capped.tobytes() == elastic.tobytes()
        assert np.unique(capped).size > 5

    def test_more_links_than_one_radix_digit(self, kernel):
        """70 000 links: link 66 000 (the bottleneck) and link 464 share
        their low 16 bits, so its rows are only right if the link → rows
        grouping also sorts on the next digit."""
        capacity = dict.fromkeys(range(70_000), 100.0)
        capacity[66_000] = 1.0
        rates = _kernel_equals_oracle(
            kernel, capacity,
            [list(range(35_000)), list(range(35_000, 70_000)),
             [66_000, 464]])
        assert rates.tolist() == [99.5, 0.5, 0.5]


class TestMultiplicityIsValidated:
    """A count that is not a finite positive integer, or a count array
    of another length than ``active``, is refused on either kernel."""

    @pytest.mark.parametrize("rows", [3, SMALL_SOLVE_ENTRIES + 1])
    @pytest.mark.parametrize("first, extra, message", [
        (1.5, 0, "finite positive integer count"),
        (0, 0, "finite positive integer count"),
        (-1, 0, "finite positive integer count"),
        (np.inf, 0, "finite positive integer count"),
        (np.nan, 0, "finite positive integer count"),
        (1, -1, "count per active row"),
        (1, 1, "count per active row"),
    ])
    def test_bad_counts_are_refused(self, kernel_calls, rows, first, extra,
                                    message):
        """``[1.5, 1, 1]`` used to return rates, ``[0, 1, 1]`` to be
        called unconstrained, and a short array to raise ``IndexError``
        in the scalar kernel."""
        matrix = FlowLinkMatrix.from_paths(
            {"a": 10.0, "b": 14.0}, [["a"]] * (rows - 1) + [["b"]])
        counts = [first] + [1] * (rows - 1 + extra)
        with pytest.raises(ValueError, match=message):
            waterfill(matrix, multiplicity=counts)
        assert kernel_calls == []
        good = waterfill(matrix, multiplicity=[2] + [1] * (rows - 1))
        assert kernel_calls == ["_waterfill_scalars" if rows <= 3
                                else "_waterfill_arrays"]
        assert good[0] == 10.0 / rows


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
            columns, codes = oracle_columns(ids)
            assert np.array_equal(rows, columns)
            assert np.array_equal(ids[first], codes)
            assert (np.diff(first) > 0).all()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_sort_free_columns_equal_the_unique_oracle(self, data):
        """``first_appearance_columns`` over a ``DeviceIndex`` that
        learns codes across calls (and outgrows its table) numbers every
        call's codes as one ``np.unique`` does, with the keys
        ``decode_device`` gives."""
        num_nodes = data.draw(st.integers(2, 40))
        pool = data.draw(st.lists(
            st.integers(0, num_nodes * num_nodes + num_nodes - 1),
            min_size=1, max_size=120, unique=True))
        devices = DeviceIndex(num_nodes)
        for _ in range(data.draw(st.integers(1, 4))):
            codes = np.array(data.draw(st.lists(st.sampled_from(pool),
                                                max_size=300)),
                             dtype=np.int64)
            columns, column_codes, keys = first_appearance_columns(
                codes, devices)
            expected_columns, expected_codes = oracle_columns(codes)
            assert np.array_equal(columns, expected_columns)
            assert np.array_equal(column_codes, expected_codes)
            assert keys == [decode_device(code, num_nodes)
                            for code in expected_codes.tolist()]
            assert devices.size >= 4 * len(set(codes.tolist()))

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_array_built_class_ids_equal_setdefault(self, small_network,
                                                    data):
        """Class ids built from arrays equal one ``setdefault`` per flow,
        at construction and across an attach — known classes keep their
        ids, new ones count on, two caps on one pair are two classes and
        a cap above the elastic one joins the uncapped class."""
        pairs = st.sampled_from([(0, 1), (1, 0), (2, 1), (0, 2), (5, 3)])
        caps = st.sampled_from([np.inf, 1e6, 2.5e6, 1e12])

        def flows(min_size):
            return [FluidFlow(src, dst, demand_bps=cap)
                    for (src, dst), cap in data.draw(st.lists(
                        st.tuples(pairs, caps), min_size=min_size,
                        max_size=12))]

        early, late = flows(1), flows(0)
        simulation = FluidSimulation(small_network, early)
        state = simulation.start_run(2.0)
        elastic = 100.0 * simulation.link_capacity_bps
        class_of = {}
        expected = setdefault_classes(class_of, early, elastic)
        assert state.flow_class.tolist() == expected
        simulation.extend_flows(state, late)
        expected += setdefault_classes(class_of, late, elastic)
        assert state.flow_class.tolist() == expected
        assert state.flow_class.dtype == np.int32
        assert list(simulation._class_of.items()) == list(class_of.items())
        assert simulation._class_pairs.tolist() == [
            list(pair) for pair, _ in class_of]
        assert simulation._destinations == sorted(
            {dst for (_, dst), _ in class_of})

    def test_attach_mixing_known_and_new_classes(self, small_network):
        simulation = FluidSimulation(small_network, [
            FluidFlow(0, 3), FluidFlow(1, 3, demand_bps=1e6)])
        state = simulation.start_run(2.0)
        simulation.extend_flows(state, [
            FluidFlow(2, 4), FluidFlow(1, 3, demand_bps=1e6),
            FluidFlow(0, 3, demand_bps=1e12), FluidFlow(0, 3, demand_bps=2e6),
            FluidFlow(2, 4)])
        assert state.flow_class.tolist() == [0, 1, 2, 1, 0, 3, 2]
        assert simulation._class_pairs.tolist() == [[0, 3], [1, 3], [2, 4],
                                                    [0, 3]]
        assert simulation._destinations == [3, 4]

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

    def test_unknown_kernel_rejected(self, small_network):
        # One allocator, no switch: the old ``kernel=`` option is gone.
        with pytest.raises(TypeError):
            FluidSimulation(small_network, [FluidFlow(0, 1)],
                            kernel="reference")


# ----------------------------------------------------------------------
# AIMD on the shared engine skeleton: parity pins and the inherited API
# ----------------------------------------------------------------------

#: sha256 of every bit-parity output of three long-running AIMD runs,
#: recorded on the commit before AIMD moved onto FluidSimulation's loop
#: (its own 300-line ``run``); the refactor must reproduce them unchanged.
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
}


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
                  small_stations):
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
                          "_step_paths", "_record_snapshot"):
            assert inherited not in vars(AimdFluidSimulation)

    @pytest.mark.parametrize("aimd_scenario", list(AIMD_PINS),
                             indirect=True)
    def test_parity_pin(self, request, aimd_scenario):
        simulation, duration_s = aimd_scenario
        result = simulation.run(duration_s, step_s=1.0)
        name = request.node.callspec.params["aimd_scenario"]
        assert _result_digests(result) == AIMD_PINS[name]
        assert result.flow_fct_s is None

    @pytest.mark.parametrize("aimd_scenario", list(AIMD_PINS),
                             indirect=True)
    def test_sliced_advance_through_pickle_matches_run(self, aimd_scenario):
        """No transient lives outside AimdRunState: stepping one snapshot
        at a time, with the simulation made cold halfway, is ``run()``
        (the test keeps the name it had while a pickle round trip of the
        state stood halfway)."""
        simulation, duration_s = aimd_scenario
        expected = simulation.run(duration_s, step_s=1.0)
        state = simulation.start_run(duration_s, step_s=1.0)
        assert isinstance(state, AimdRunState)
        steps = len(state.times)
        for step in range(steps):
            if step == steps // 2:
                go_cold(simulation)
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

#: ``perf["allocations_solved"]`` of the same five runs, recorded on the
#: commit before the sub-event loop was driven by events (when every
#: re-solve rescanned all of the step's candidates).
MAXMIN_SOLVES = {"churn": 356, "frozen": 366, "faults": 218,
                 "frozen_faults": 230, "straddle": 275}


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
        assert result.perf["allocations_solved"] == MAXMIN_SOLVES[name]
        assert np.isfinite(result.flow_fct_s).sum() > 50

    def test_sliced_advance_through_pickle_matches_run(self,
                                                       maxmin_scenario):
        """Stepping one snapshot at a time, with the simulation made cold
        halfway, is ``run()`` (the name is the one the test had while a
        pickle round trip stood halfway)."""
        network, flows, freeze_at_s, duration_s = maxmin_scenario
        simulation = FluidSimulation(network, flows,
                                     freeze_topology_at_s=freeze_at_s)
        expected = simulation.run(duration_s, step_s=1.0)
        state = simulation.start_run(duration_s, step_s=1.0)
        for step in range(len(state.times)):
            if step == len(state.times) // 2:
                go_cold(simulation)
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


# ----------------------------------------------------------------------
# The class step's paths: repaired trees, one int table, no lists
# ----------------------------------------------------------------------

class FreshRouting(FluidSimulation):
    """The class step fed, every step, by a new ``RoutingEngine``'s
    ``paths_many`` — no repair, no reuse of the previous walk."""

    def _class_walk(self, time_s, classes, previous):
        pairs = [tuple(pair) for pair in self._class_pairs[classes].tolist()]
        paths = RoutingEngine(self.network).paths_many(
            self.network.snapshot(time_s), pairs)
        counts = np.array([len(path) if path else 0 for path in paths])
        table = np.full((len(paths), max(counts.max(initial=0), 1)),
                        UNREACHABLE, dtype=np.int64)
        for row, path in enumerate(paths):
            table[row, :counts[row]] = path or []
        # The next step ignores it: no trees for it to compare with.
        return PathWalk(table, counts, np.full(len(paths), np.inf),
                        np.zeros(len(paths), dtype=np.int64),
                        np.zeros(len(paths), dtype=bool), None, ())


@pytest.fixture(scope="module")
def outage_k1():
    """K1 x 12 cities from t = 10 s; the first two satellites of gid
    0 -> 1's path at t = 4 s are dark from 3.5 s to 6.5 s."""
    network = Hypatia.from_shell_name("K1", num_cities=12,
                                      epoch_offset_s=10.0).network
    path = RoutingEngine(network).path(network.snapshot(4.0), 0, 1)
    network.set_faults(FaultSchedule(
        [FaultEvent.satellite_outage(node, 3.5, 6.5) for node in path[1:3]],
        seed=0))
    return network


class TestClassStepDifferential:
    """FluidSimulation ≡ the same step over fresh per-step routing ≡ the
    oracle, on a moving K1 timeline: early finite flows that are all
    done by t = 3 s (so step 3 has no candidate flow), then flows
    attached at t = 2 s that start from 4 s, bring two destinations no
    flow had and run through a satellite outage that begins and ends
    mid-run.  Rates, loads and ``flow_paths`` are compared bit for bit;
    the simulation is made cold (:func:`go_cold`) halfway through."""

    EARLY = [FluidFlow(0, 1, size_bytes=400_000.0),
             FluidFlow(2, 1, size_bytes=250_000.0, start_s=0.4),
             FluidFlow(3, 4, size_bytes=300_000.0, start_s=1.2),
             FluidFlow(5, 4, size_bytes=200_000.0, start_s=1.5,
                       demand_bps=2e6)]
    LATE = [FluidFlow(0, 1, start_s=4.0),
            FluidFlow(6, 9, start_s=4.2),
            FluidFlow(7, 10, size_bytes=900_000.0, start_s=4.5),
            FluidFlow(2, 1, start_s=5.0, demand_bps=3e6)]

    def _run(self, engine, network, freeze_at_s, cold):
        simulation = engine(network, self.EARLY,
                            freeze_topology_at_s=freeze_at_s)
        state = simulation.start_run(10.0, step_s=1.0)
        simulation.advance(state, max_steps=2)
        simulation.extend_flows(state, self.LATE)
        simulation.advance(state, max_steps=3)
        if cold:
            go_cold(simulation)
        simulation.advance(state)
        return simulation, simulation.finish(state)

    @pytest.mark.parametrize("freeze_at_s", [None, 4.0],
                             ids=["moving", "frozen"])
    def test_equals_fresh_routing_and_the_oracle(self, outage_k1,
                                                 freeze_at_s):
        _, expected = self._run(FreshRouting, outage_k1, freeze_at_s,
                                cold=False)
        simulation, got = self._run(FluidSimulation, outage_k1,
                                    freeze_at_s, cold=True)
        _assert_same_result(got, expected)
        flows = self.EARLY + self.LATE
        assert_result_matches_oracle(got, flows)
        early_ends = got.flow_fct_s[:4] + [f.start_s for f in self.EARLY]
        assert (early_ends < 3.0).all()
        assert got.flow_paths[3] == [None] * len(flows)
        assert not got.flow_rates_bps[3].any()
        assert got.flow_rates_bps[:, 4:].any(axis=0).all()
        if freeze_at_s is None:
            # The late flows' new destinations force a full solve (step
            # 2), and so does the cold restore (step 5); the steps after
            # each are repaired.
            counters = simulation._router.inc_perf
            assert counters.destination_changes == 1
            assert counters.repairs >= 4

    def test_route_to_many_is_spared_without_candidates(self, outage_k1):
        simulation = FluidSimulation(outage_k1, self.EARLY)
        state = simulation.start_run(10.0, step_s=1.0)
        simulation.advance(state, max_steps=3)
        before = simulation._router.perf.trees_computed
        simulation.advance(state, max_steps=1)
        assert state.snapshots[3].paths(len(self.EARLY)) == [
            None] * len(self.EARLY)
        assert simulation._router.perf.trees_computed == before


# ----------------------------------------------------------------------
# Event-driven re-solves against the rescanning sub-event loop
# ----------------------------------------------------------------------

#: Pairs of the differential below: gid 2's are path-less while its GSL
#: is dark on a moving topology.
EVENT_PAIRS = [(0, 3), (1, 4), (2, 5), (3, 0), (4, 2), (5, 1), (1, 2)]


@st.composite
def _event_workloads(draw):
    """Flows whose sub-events tie and nearly tie: starts on a 0.05 s grid
    plus offsets within the event tolerance (an arrival just before a
    grid instant can cut a transfer that would end there, leaving a
    residual due in under the tolerance), groups of same-class flows
    arriving at one instant (row multiplicity inside a re-solve), finite
    and infinite sizes, demand caps (inexact binary fractions among them,
    so a changed solve order shows in the low bits).  Returns
    ``(flows, attached)``: the last ``attached`` flows join the run
    mid-way."""
    flows = []
    for _ in range(draw(st.integers(1, 8))):
        src, dst = draw(st.sampled_from(EVENT_PAIRS))
        start_s = max(draw(st.integers(0, 59)) * 0.05
                      + draw(st.sampled_from([-0.5 * _TIME_EPS_S, 0.0,
                                              0.4 * _TIME_EPS_S,
                                              0.9 * _TIME_EPS_S,
                                              _TIME_EPS_S])), 0.0)
        demand = draw(st.sampled_from([np.inf, 1e6, 2.5e6, 1e7 / 3]))
        for _ in range(draw(st.integers(1, 3))):
            size = draw(st.sampled_from(
                [None, 20_000.0, 125_000.0, 400_000.0, 1_500_000.0]))
            flows.append(FluidFlow(src, dst, demand_bps=demand,
                                   size_bytes=size, start_s=start_s))
    return flows, draw(st.integers(0, len(flows)))


class TestEventDrivenSubEvents:
    """The event-driven sub-event loop (kept active set, one sorted
    arrival list, scalar re-solves) ≡ the rescanning loop it replaced,
    bit for bit and solve for solve."""

    #: An ISL of gid 0 -> 3's path is cut from 1.5 s (frozen at 1 s, flow
    #: 0 stays on it at rate 0) and gid 2's GSL is dark from 1.2 s to
    #: 2.4 s.
    FAULTS = [FaultEvent.isl_cut(35, 34, 1.5, 3.0),
              FaultEvent.gsl_cut(2, 1.2, 2.4)]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_event_workloads(), frozen=st.booleans(),
           step_s=st.sampled_from([0.5, 1.0]),
           capacity=st.sampled_from([10e6, 1e8 / 3]))
    # A start exactly the tolerance after another joins that re-solve.
    @example(case=([FluidFlow(1, 4, start_s=0.5),
                    FluidFlow(2, 5, start_s=0.5 + _TIME_EPS_S)], 0),
             frozen=False, step_s=1.0, capacity=10e6)
    # Three flows of a lower index arrive after three of a higher one:
    # rows must stay in candidate order, not arrival order, or the tie
    # between their 1e8/3 / 3 bottlenecks breaks the other way.
    @example(case=([FluidFlow(2, 5, start_s=0.6) for _ in range(3)]
                   + [FluidFlow(1, 4, start_s=0.3) for _ in range(3)], 0),
             frozen=False, step_s=1.0, capacity=1e8 / 3)
    # An arrival half the tolerance before a 1 Mbit transfer would end
    # leaves it a residual due in less than the tolerance.
    @example(case=([FluidFlow(1, 4, size_bytes=125_000.0, start_s=0.5),
                    FluidFlow(2, 5, start_s=0.6 - 0.5 * _TIME_EPS_S)], 0),
             frozen=False, step_s=1.0, capacity=10e6)
    def test_equals_the_rescanning_loop(self, small_network, case, frozen,
                                        step_s, capacity):
        small_network.set_faults(FaultSchedule(self.FAULTS, seed=0))
        drawn, attached = case
        # Frozen, flow 0 is too large to finish before the cut; moving,
        # it leaves early, so the active set can run empty.
        flows = [FluidFlow(0, 3, size_bytes=1e7 if frozen else 1e5)] + drawn
        early = len(flows) - attached

        def run(engine):
            simulation = engine(small_network, flows[:early],
                                link_capacity_bps=capacity,
                                freeze_topology_at_s=1.0 if frozen else None)
            state = simulation.start_run(3.0, step_s)
            simulation.advance(state, max_steps=2)
            simulation.extend_flows(state, flows[early:])
            simulation.advance(state)
            return simulation.finish(state)

        got, expected = run(FluidSimulation), run(RescanningFluidSimulation)
        _assert_same_result(got, expected)
        assert (got.perf.get("allocations_solved")
                == expected.perf.get("allocations_solved"))
        at_2s = int(np.flatnonzero(got.times_s == 2.0)[0])
        if frozen:
            assert got.flow_paths[at_2s][0] is not None
            assert got.flow_rates_bps[at_2s, 0] == 0.0
        else:
            assert all(path is None
                       for path, flow in zip(got.flow_paths[at_2s], flows)
                       if 2 in (flow.src_gid, flow.dst_gid))


class TestSnapshotIntegration:
    """The snapshot solve's integration compresses nothing (a flow at
    rate 0 is served +0.0) and keeps no residual when no flow with a
    finite residual has a rate (a static workload); neither may change a
    bit against the rescanning loop, which compresses, or the oracle."""

    def _run(self, engine, network, flows, frozen_at_s):
        simulation = engine(network, flows, link_capacity_bps=10e6,
                            freeze_topology_at_s=frozen_at_s)
        return simulation.run(3.0, step_s=1.0)

    def test_static_run(self, small_network):
        flows = [FluidFlow(src, dst) for src, dst in EVENT_PAIRS]
        got = self._run(FluidSimulation, small_network, flows, None)
        _assert_same_result(got, self._run(RescanningFluidSimulation,
                                           small_network, flows, None))
        assert_result_matches_oracle(got, flows)
        # No residual is finite, and every rate is positive.
        assert (got.flow_rates_bps > 0.0).all()
        assert got.flow_fct_s is None

    def test_faulted_dynamic_run(self, small_network):
        faults = FaultSchedule(TestEventDrivenSubEvents.FAULTS, seed=0)
        small_network.set_faults(faults)
        # Flow 0 is frozen on the ISL cut from 1.5 s: at 2 s it has rate
        # 0 and a finite residual, beside a finite flow still running
        # (2) and an infinite one (4); flows 1 and 3 finish earlier.
        # Until 1.5 s every active flow is finite.  Flow 1 ends first, in
        # the 0 s snapshot's integration, where rate x (residual / rate)
        # rounds one ulp above its residual.
        flows = [FluidFlow(0, 3, size_bytes=1e7),
                 FluidFlow(1, 4, size_bytes=125_026.0),
                 FluidFlow(4, 2, size_bytes=4e6, start_s=0.3),
                 FluidFlow(5, 1, size_bytes=2e6),
                 FluidFlow(1, 2, start_s=1.5)]
        got = self._run(FluidSimulation, small_network, flows, 1.0)
        _assert_same_result(got, self._run(RescanningFluidSimulation,
                                           small_network, flows, 1.0))
        assert_result_matches_oracle(got, flows, faults)
        at_2s = got.flow_rates_bps[2]
        assert at_2s[0] == 0.0 and got.flow_paths[2][0] is not None
        assert at_2s[2] > 0.0 and at_2s[4] > 0.0
        assert np.isnan(got.flow_fct_s[[0, 2, 4]]).all()
        assert not np.isnan(got.flow_fct_s[[1, 3]]).any()
        rate = got.flow_rates_bps[0, 1]
        assert rate * (got.flow_offered_bits[1] / rate) > 1_000_208.0
        assert (got.flow_delivered_bits[1] == got.flow_offered_bits[1]
                == 1_000_208.0)


    def test_flow_due_just_after_a_snapshot_is_active_there(
            self, small_network):
        # Flow 0 runs alone at 10 Mbit/s until 1 s and is sized to end
        # 0.5 ns later: its residual is still positive at the 1 s
        # snapshot, so it is active there and shares the path with flow
        # 1, which starts then; it ends ε later.
        flows = [FluidFlow(0, 3, size_bytes=1.25e6 * (1.0 + 0.5e-9)),
                 FluidFlow(0, 3, start_s=1.0)]
        got = self._run(FluidSimulation, small_network, flows, 1.0)
        _assert_same_result(got, self._run(RescanningFluidSimulation,
                                           small_network, flows, 1.0))
        assert_result_matches_oracle(got, flows)
        assert got.flow_rates_bps[0].tolist() == [10e6, 0.0]
        assert got.flow_rates_bps[1].tolist() == [5e6, 5e6]
        assert got.flow_rates_bps[2].tolist() == [0.0, 10e6]
        assert 1.0 < got.flow_fct_s[0] <= 1.0 + _TIME_EPS_S


class TestExtendFlows:
    """Build-time and attach-time flow construction are one method."""

    LATE = [FluidFlow(4, 1, start_s=3.0, size_bytes=900_000.0),
            FluidFlow(0, 3, start_s=3.4, size_bytes=300_000.0),
            FluidFlow(2, 5, start_s=6.0)]

    @pytest.mark.parametrize("engine", [FluidSimulation])
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
        assert len(state.flow_class) == 6 and len(state.snapshots) == 3
        assert all(record.rates(6).shape == (6,)
                   for record in state.snapshots)
        simulation.advance(state)
        _assert_same_result(simulation.finish(state), expected)

    def test_start_run_is_repeatable(self, small_network):
        simulation = FluidSimulation(small_network, [FluidFlow(0, 3)])
        first = simulation.run(2.0)
        again = simulation.run(2.0)
        assert len(simulation.flows) == 1
        _assert_same_result(again, first)


class TestStaticRunTurnsDynamic:
    """Flows that make a faulted static run dynamic mid-run: the result,
    the earlier flows' delivered bits included, equals a run that is
    dynamic from t = 0 and the rescanning loop."""

    #: Loss windows that move the rates from snapshot to snapshot.
    FAULTS = [FaultEvent.packet_loss(0.5, 2.5, 0.3, gid=0),
              FaultEvent.packet_loss(1.5, 4.5, 0.55, gid=1),
              FaultEvent.isl_cut(35, 34, 3.0, 6.0)]
    LATE = [FluidFlow(1, 2, start_s=5.5, size_bytes=400_000.0),
            FluidFlow(0, 3, start_s=6.0)]

    def _extended(self, engine, network):
        base = [FluidFlow(src, dst) for src, dst in EVENT_PAIRS]
        base += [FluidFlow(0, 3), FluidFlow(2, 5, demand_bps=2e6)]
        simulation = engine(network, base, link_capacity_bps=1e8 / 3)
        state = simulation.start_run(8.0, step_s=1.0)
        simulation.advance(state, max_steps=5)
        assert not state.dynamic
        simulation.extend_flows(state, self.LATE)
        assert state.dynamic
        simulation.advance(state)
        return base, simulation.finish(state)

    def test_delivered_bits_equal_a_dynamic_run_from_t0(self,
                                                        small_network):
        small_network.set_faults(FaultSchedule(self.FAULTS, seed=0))
        base, got = self._extended(FluidSimulation, small_network)
        expected = FluidSimulation(
            small_network, base + self.LATE,
            link_capacity_bps=1e8 / 3).run(8.0, step_s=1.0)
        _assert_same_result(got, expected)
        _assert_same_result(got, self._extended(RescanningFluidSimulation,
                                                small_network)[1])
