"""Fluid-core scale gate (the `make bench-fluid-scale` part of `make check`).

The vectorized fluid-core contract (DESIGN.md "Vectorized fluid core"):

* **Equality, always asserted.**  The array waterfilling kernel must be
  bit-identical to the fixed pure-Python progressive-filling oracle —
  on random scenarios with repeated link traversals and demand caps, on
  a static permutation workload run end-to-end through
  ``FluidSimulation`` (every recorded row recomputed with the oracle),
  and on the full-scale gravity allocation below.
* **Scale, gated on machine capability.**  A 100-city gravity matrix
  with >= 1e5 concurrent flows per snapshot must solve at interactive
  speed, >= 10x faster than the per-flow Python solver on the same
  workload.  What is timed is what the engine's step does: one matrix
  row per flow class (same endpoints and cap) solved with its member
  count as multiplicity, rates gathered back per flow — asserted equal
  to the one-row-per-flow kernel and the oracle first.  Like the
  `bench-sweep` speedup gate, the throughput thresholds are only
  enforced on machines with >= 4 cores; the numbers are measured and
  reported everywhere, with the solve's freezing events (counted by the
  oracle, which takes the same ones) and the array kernel's time per
  event.
* **Link loads stay one block's worth of memory.**  The step's
  ``link_loads`` call over the 1e5-flow snapshot (class rows, one per
  flow) must equal the per-flow matrix's loads bit for bit, and its
  tracemalloc peak must stay under ``MAX_LOADS_PEAK_MB`` — a bound that
  does not grow with the flow count, so ``HYPATIA_FULL_SCALE=1`` holds
  the 1e6-flow call to it too.  The peak goes to
  ``results/fluid_scale.txt``.
* **Step reuse is exact.**  A step re-walks only the class paths its
  routing repair can have moved and keeps the rest from the step before.
  The scale workload's first ``REUSE_STEPS`` 1 s steps must equal, bit
  for bit in rates, loads and paths, the same steps with the simulation
  made cold before each one (``_fluid_oracle.go_cold``) — a cold step
  has nothing to reuse and walks every row.  The rows walked per step go
  to ``results/fluid_scale.txt``.
* **The small-solve bound is measured.**  ``waterfill`` runs solves of
  at most ``SMALL_SOLVE_ENTRIES`` rows and traversal entries on Python
  scalars.  Both kernels are timed through ``waterfill_lists`` (the
  entry the fluid step's re-solves call) from 8 to 2048 entries on K1
  path rows and on random sparse rows (equality asserted at every size),
  interleaved round by round so that the shared machine's slow spells
  hit both; the table goes to ``results/fluid_small_solves.txt``, and —
  on capable machines — the scalar kernel must not be slower at the
  bound, nor the array kernel at 8x the bound.
"""

import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro import Hypatia
from repro.fluid.engine import (DeviceIndex, FluidFlow, FluidSimulation,
                                first_appearance_rows,
                                flow_link_matrix_from_paths, path_devices)
from repro.fluid import vectorized
from repro.fluid.vectorized import (SMALL_SOLVE_ENTRIES, FlowLinkMatrix,
                                    _waterfill_arrays,
                                    max_min_fair_allocation, waterfill,
                                    waterfill_lists)
from repro.traffic import TrafficMatrix

from _common import scaled, write_result
from _fluid_oracle import assert_result_matches_oracle, go_cold
from _fluid_oracle import max_min_fair_allocation as oracle_allocation
from _fluid_oracle import progressive_filling

NUM_CITIES = 100
NUM_FLOWS = scaled(100_000, 1_000_000)
LINK_CAPACITY_BPS = 10e6
MIN_SPEEDUP = 10.0
MAX_SOLVE_S = 2.0  # "interactive speed": one snapshot allocation budget
SPEEDUP_CORES = 4
SMALL_SOLVE_SIZES = [8, 16, 32, 64, 128, 192, 256, 512, 1024, 1536, 2048]
CROSSOVER_ROUNDS = 15
REUSE_STEPS = 6
#: One ``link_loads`` call's allocation peak (MiB), whatever the flow
#: count: it gathers one block of ``vectorized.LOAD_BLOCK_FLOWS`` flows'
#: entries at a time (≈3.3 MiB on K1 paths; every entry at once would
#: take ≈12 MiB at 1e5 flows and ≈120 MiB at 1e6).
MAX_LOADS_PEAK_MB = 6.0

_CACHE = {}


def _gravity_paths():
    """The scale workload: K1, 100-city gravity, one snapshot's paths."""
    if not _CACHE:
        hypatia = Hypatia.from_shell_name("K1", num_cities=NUM_CITIES)
        matrix = TrafficMatrix.gravity(count=NUM_CITIES,
                                       total_offered_bps=1e9)
        demand = np.array(matrix.demand_bps, dtype=float).copy()
        np.fill_diagonal(demand, 0.0)
        rng = np.random.default_rng(42)
        probability = (demand / demand.sum()).ravel()
        # Oversample: self-pairs and disconnected stations are dropped
        # below, and the solve must still see >= NUM_FLOWS rows.
        draws = rng.choice(probability.size, size=int(NUM_FLOWS * 1.05),
                           p=probability)
        src, dst = np.divmod(draws, NUM_CITIES)
        keep = src != dst
        flows = [FluidFlow(int(s), int(d))
                 for s, d in zip(src[keep], dst[keep])]
        sim = FluidSimulation(hypatia.network, flows,
                              link_capacity_bps=LINK_CAPACITY_BPS)
        state = sim.start_run(1.0)
        start = time.perf_counter()
        step = sim._step_paths(state, 0.0, np.arange(len(flows)))
        _CACHE["paths_s"] = time.perf_counter() - start
        # Every flow is a candidate; its class's row of the path table.
        rows = step.flow_rows(len(flows))
        routed = np.flatnonzero(step.counts[rows] > 0)[:NUM_FLOWS]
        _CACHE["rows"] = rows[routed]
        _CACHE["table"], _CACHE["counts"] = step.table, step.counts
        _CACHE["paths"] = [step.paths[row] for row in rows[routed].tolist()]
        _CACHE["flow_class"] = state.flow_class[routed]
        _CACHE["num_sats"] = hypatia.network.num_satellites
        _CACHE["num_nodes"] = hypatia.network.num_nodes
        _CACHE["network"], _CACHE["flows"] = hypatia.network, flows
    return _CACHE


def _reuse_run():
    """The scale workload's first ``REUSE_STEPS`` 1 s steps, twice:
    stepped as is, each step walking only the class rows whose path can
    have moved, and with the simulation made cold before every step,
    each step walking every row.  Returns ``(reused, cold,
    walked)``: both results and the rows the first run walked at each
    step, out of its class rows."""
    if "reuse" not in _CACHE:
        cache = _gravity_paths()

        def simulation():
            return FluidSimulation(cache["network"], cache["flows"],
                                   link_capacity_bps=LINK_CAPACITY_BPS)

        reused = simulation()
        state = reused.start_run(float(REUSE_STEPS))
        walked = []
        for _ in range(REUSE_STEPS):
            reused.advance(state, max_steps=1)
            walk = reused._last_step.walk
            walked.append((int(np.count_nonzero(~walk.kept)),
                           len(walk.kept)))
        cold = simulation()
        cold_state = cold.start_run(float(REUSE_STEPS))
        for _ in range(REUSE_STEPS):
            go_cold(cold)
            cold.advance(cold_state, max_steps=1)
        _CACHE["reuse"] = (reused.finish(state),
                           cold.finish(cold_state), walked)
    return _CACHE["reuse"]


def _matrix(cache, rows):
    """The flows-on-links matrix of path-table ``rows`` (one matrix row
    each), as the engine's step builds it."""
    return flow_link_matrix_from_paths(
        cache["table"][rows], cache["counts"][rows], cache["num_sats"],
        DeviceIndex(cache["num_nodes"]), _uniform_capacities)[0]


def _uniform_capacities(keys):
    return np.full(len(keys), LINK_CAPACITY_BPS)


def _traced_peak_mb(call):
    """``call()``'s result and the peak memory it allocated, in MiB."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def test_kernels_bit_identical_on_random_scenarios():
    """Random capacities/paths/demands — loop paths included."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        links = [f"l{j}" for j in range(rng.integers(1, 8))]
        capacity = {link: float(rng.uniform(0.5, 50.0)) for link in links}
        num_flows = int(rng.integers(1, 12))
        flow_links = [list(rng.choice(links, size=rng.integers(1, 6)))
                      for _ in range(num_flows)]
        demands = (rng.uniform(0.1, 40.0, size=num_flows)
                   if rng.random() < 0.5 else None)
        expected = oracle_allocation(capacity, flow_links, demands)
        got = max_min_fair_allocation(capacity, flow_links, demands)
        assert np.array_equal(expected, got), (capacity, flow_links,
                                               demands)


def test_static_permutation_bit_identical():
    """End-to-end FluidSimulation vs the oracle on a permutation workload."""
    from repro import random_permutation_pairs
    hypatia = Hypatia.from_shell_name("K1", num_cities=NUM_CITIES)
    pairs = random_permutation_pairs(NUM_CITIES)
    flows = [FluidFlow(src, dst) for src, dst in pairs]
    sim = FluidSimulation(hypatia.network, flows,
                          link_capacity_bps=LINK_CAPACITY_BPS)
    result = sim.run(duration_s=4.0, step_s=2.0)
    assert_result_matches_oracle(result, flows)


def test_gravity_scale():
    """>= 1e5 concurrent flows per snapshot, vectorized vs the oracle.

    Equality at full scale is always asserted; the throughput
    thresholds only gate on capable machines (>= 4 cores).
    """
    cache = _gravity_paths()
    paths, num_sats = cache["paths"], cache["num_sats"]
    flow_class, rows = cache["flow_class"], cache["rows"]

    # Vectorized, as the engine's step runs it: rows are flow classes in
    # first-flow order, weighted by their member counts.
    build_start = time.perf_counter()
    row_of_flow, lead = first_appearance_rows(flow_class,
                                              int(flow_class.max()) + 1)
    matrix = _matrix(cache, rows[lead])
    members = np.bincount(row_of_flow, minlength=matrix.num_flows)
    build_s = time.perf_counter() - build_start
    waterfill(matrix, multiplicity=members)  # warm caches/allocator
    vec_solve_s = np.inf
    for _ in range(3):
        start = time.perf_counter()
        rates_vec = waterfill(matrix, multiplicity=members)[row_of_flow]
        vec_solve_s = min(vec_solve_s, time.perf_counter() - start)

    # The same kernel with every flow its own row.
    per_flow = _matrix(cache, rows)
    start = time.perf_counter()
    rates_per_flow = waterfill(per_flow)
    per_flow_solve_s = time.perf_counter() - start
    assert per_flow.link_keys == matrix.link_keys
    assert np.array_equal(rates_per_flow, rates_vec), (
        "class rows with multiplicity diverged from per-flow rows")
    # The step's load call: class rows, one per flow.
    loads, loads_peak_mb = _traced_peak_mb(
        lambda: matrix.link_loads(rates_vec, row_of_flow))
    assert loads.tobytes() == per_flow.link_loads(rates_per_flow).tobytes(), (
        "class-row loads diverged from per-flow loads")

    # Reference: the per-flow Python solver on the same workload.
    conv_start = time.perf_counter()
    flow_links = [path_devices(path, num_sats) for path in paths]
    capacity = {key: LINK_CAPACITY_BPS for key in matrix.link_keys}
    ref_build_s = time.perf_counter() - conv_start
    start = time.perf_counter()
    rates_ref, events = progressive_filling(capacity, flow_links)
    ref_solve_s = time.perf_counter() - start

    assert np.array_equal(rates_ref, rates_vec), (
        "vectorized kernel diverged from the oracle at scale")

    speedup = ref_solve_s / vec_solve_s
    capable = (os.cpu_count() or 1) >= SPEEDUP_CORES
    rows = [
        "# fluid-core scale gate (100-city gravity, one snapshot)",
        f"flows                 {len(paths):10d}",
        f"class_rows            {matrix.num_flows:10d}",
        f"links                 {matrix.num_links:10d}",
        f"traversals            {per_flow.nnz:10d}",
        f"class_traversals      {matrix.nnz:10d}",
        f"paths_wall_s          {cache['paths_s']:10.3f}",
        f"matrix_build_s        {build_s:10.3f}",
        f"vectorized_solve_s    {vec_solve_s:10.3f}",
        f"freezing_events       {events:10d}",
        f"array_solve_ms_per_event {vec_solve_s * 1e3 / events:7.4f}",
        f"per_flow_rows_solve_s {per_flow_solve_s:10.3f}",
        f"reference_build_s     {ref_build_s:10.3f}",
        f"reference_solve_s     {ref_solve_s:10.3f}",
        f"speedup               {speedup:10.1f}",
        f"min_speedup           {MIN_SPEEDUP:10.1f}",
        f"max_solve_s           {MAX_SOLVE_S:10.2f}",
        f"bit_identical         {'yes':>10}",
        f"loads_peak_mb         {loads_peak_mb:10.2f}",
        f"max_loads_peak_mb     {MAX_LOADS_PEAK_MB:10.2f}",
        f"thresholds_enforced   {('yes' if capable else 'no'):>10}",
        "# step reuse: class rows walked per 1 s step, of "
        f"{_reuse_run()[2][0][1]} (the first step walks every row)",
    ] + [f"rows_walked_step_{step}     {walked:10d}"
         for step, (walked, _) in enumerate(_reuse_run()[2])]
    write_result("fluid_scale", rows)

    assert len(paths) >= NUM_FLOWS, "scale gate lost workload rows"
    assert loads_peak_mb <= MAX_LOADS_PEAK_MB, (
        f"one link_loads call allocated {loads_peak_mb:.1f} MiB at "
        f"{len(paths)} flows (bound {MAX_LOADS_PEAK_MB:.0f} MiB)")
    if not capable:
        pytest.skip(f"throughput gate needs >= {SPEEDUP_CORES} cores "
                    f"(measured {speedup:.1f}x, {vec_solve_s:.3f}s)")
    assert vec_solve_s <= MAX_SOLVE_S, (
        f"vectorized solve took {vec_solve_s:.2f}s per snapshot "
        f"(interactive budget {MAX_SOLVE_S:.1f}s)")
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized kernel reached only {speedup:.1f}x over the "
        f"Python solver (gate {MIN_SPEEDUP:.0f}x)")


def test_step_reuse_equals_a_cold_walk_every_step():
    """Reusing the previous step's rows, walk and tuples is exact: the
    reused run equals, bit for bit, the one made cold before every
    step — which walks every row — and reuse walked fewer
    rows than a cold walk on every step after the first."""
    reused, cold, walked = _reuse_run()
    assert np.array_equal(reused.flow_rates_bps, cold.flow_rates_bps)
    assert ([list(loads.items()) for loads in reused.device_load_bps]
            == [list(loads.items()) for loads in cold.device_load_bps])
    assert reused.flow_paths == cold.flow_paths
    assert walked[0][0] == walked[0][1]
    assert all(rows < total for rows, total in walked[1:])


def _interleaved_us(kernels, repeats):
    """Microseconds per call of ``waterfill_lists`` on each of
    ``kernels`` — ``(bound, solve)``: ``solve`` run with the small-solve
    bound moved to ``bound`` — timed in turn inside every one of
    ``CROSSOVER_ROUNDS`` rounds (the order reversed every other round),
    so that a slow spell of a shared machine hits both alike.  Returns
    each kernel's median over the rounds and the median of the rounds'
    ratios first / second."""
    samples = [[] for _ in kernels]
    for round_index in range(CROSSOVER_ROUNDS):
        order = list(enumerate(kernels))
        for k, (bound, solve) in order[::-1] if round_index % 2 else order:
            vectorized.SMALL_SOLVE_ENTRIES = bound
            start = time.perf_counter()
            for _ in range(repeats):
                solve()
            samples[k].append((time.perf_counter() - start) / repeats * 1e6)
    first, second = (np.array(times) for times in samples)
    return (float(np.median(first)), float(np.median(second)),
            float(np.median(first / second)))


def test_small_solve_crossover(monkeypatch):
    """Where the scalar kernel stops paying: SMALL_SOLVE_ENTRIES is set
    from this table, and must stay on the right side of the crossover.

    Both kernels are timed through ``waterfill_lists`` — the entry the
    fluid step's re-solves call, lists in and out — with the bound moved
    so that it runs the one kernel or the other.

    Three row sources: K1 gravity class rows with the engine's elastic
    cap (few freezing events, links shared by many rows), random sparse
    rows with the same cap (about one event per row), and those rows
    with a distinct finite cap each — the scalar kernel's worst case,
    every row its own event over all still-live links.
    """
    cache = _gravity_paths()
    _, lead = first_appearance_rows(
        cache["flow_class"], int(cache["flow_class"].max()) + 1)
    k1 = _matrix(cache, cache["rows"][lead[:400]])
    rng = np.random.default_rng(19)
    capacity = {j: float(rng.uniform(0.1, 1.0)) * LINK_CAPACITY_BPS
                for j in range(2000)}
    sparse = FlowLinkMatrix.from_paths(capacity, [
        rng.choice(2000, size=6, replace=False).tolist()
        for _ in range(400)])
    elastic = np.full(400, 100.0 * LINK_CAPACITY_BPS)
    distinct = rng.uniform(0.001, 0.1, size=400) * LINK_CAPACITY_BPS
    sources = [("k1_paths", k1, elastic), ("sparse", sparse, elastic),
               ("sparse_distinct_caps", sparse, distinct)]

    # Restored when the test ends, whatever bound a timing left behind.
    monkeypatch.setattr(vectorized, "SMALL_SOLVE_ENTRIES",
                        SMALL_SOLVE_ENTRIES)
    lines = [
        f"# fluid small-solve crossover (microseconds per solve through "
        f"waterfill_lists: medians of {CROSSOVER_ROUNDS} interleaved rounds,",
        "# arrays/scalars the median of the rounds' ratios)",
        f"# SMALL_SOLVE_ENTRIES = {SMALL_SOLVE_ENTRIES}: waterfill solves "
        "at most that many rows and traversal",
        "# entries on Python scalars, anything larger on arrays; rates are "
        "bit-identical.",
    ]
    ratios = {}
    for name, matrix, caps in sources:
        lines += [f"# {name}",
                  "entries   rows  rates  arrays_us scalars_us "
                  "arrays/scalars"]
        reach = np.cumsum(np.diff(matrix.indptr))
        keys = matrix.link_keys
        link_capacity = dict(zip(keys, matrix.capacity_bps.tolist()))
        for size in SMALL_SOLVE_SIZES:
            rows = np.arange(int(np.searchsorted(reach, size)) + 1)
            entries = int(reach[rows[-1]])
            dem = caps[rows]
            row_list, cap_list = rows.tolist(), dem.tolist()

            def solve():
                return waterfill_lists(matrix, row_list, cap_list, None)

            # Bound -1 runs every solve on arrays, nnz every one on
            # scalars.
            kernels = [(-1, solve), (matrix.nnz, solve)]
            rates = _waterfill_arrays(matrix, dem, rows, None)
            for bound, _ in kernels:
                vectorized.SMALL_SOLVE_ENTRIES = bound
                assert solve() == rates.tolist()
            assert np.array_equal(
                rates, waterfill(matrix, demands=caps[:matrix.num_flows],
                                 active=rows))
            assert np.array_equal(rates, oracle_allocation(
                link_capacity,
                [[keys[j] for j in matrix.link_index[
                    matrix.indptr[row]:matrix.indptr[row + 1]]]
                 for row in rows], dem))
            repeats = max(3, 2048 // entries)
            arrays_us, scalars_us, ratio = _interleaved_us(kernels, repeats)
            ratios[name, size] = ratio
            lines.append(
                f"{entries:7d} {rows.size:6d} {np.unique(rates).size:6d} "
                f"{arrays_us:10.1f} {scalars_us:10.1f} {ratio:14.2f}")
    capable = (os.cpu_count() or 1) >= SPEEDUP_CORES
    lines += ["bit_identical                yes",
              f"thresholds_enforced   {('yes' if capable else 'no'):>10}"]
    write_result("fluid_small_solves", lines)

    assert SMALL_SOLVE_ENTRIES in SMALL_SOLVE_SIZES
    assert 8 * SMALL_SOLVE_ENTRIES in SMALL_SOLVE_SIZES
    if not capable:
        pytest.skip(f"crossover gate needs >= {SPEEDUP_CORES} cores")
    for name, _, _ in sources:
        at_bound = ratios[name, SMALL_SOLVE_ENTRIES]
        beyond = ratios[name, 8 * SMALL_SOLVE_ENTRIES]
        assert at_bound >= 1.0, (
            f"{name}: the scalar kernel is {1 / at_bound:.2f}x slower than "
            f"the array kernel at the bound ({SMALL_SOLVE_ENTRIES} entries)")
        assert beyond <= 1.0, (
            f"{name}: the array kernel is {beyond:.2f}x slower than the "
            f"scalar kernel at 8x the bound — raise SMALL_SOLVE_ENTRIES")
