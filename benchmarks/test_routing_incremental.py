"""Incremental-routing gate (the `make bench-routing` part of `make check`).

The incremental routing contract (DESIGN.md "Incremental routing"): the
:class:`repro.routing.incremental.IncrementalRouter` diffs consecutive
snapshots and repairs the batched destination trees, and whichever path
it takes — cache hit, affected-vertex repair, re-sum repair, or full
solve — its distances and next hops are bit-identical to a from-scratch
:class:`repro.routing.engine.RoutingEngine`.

Gates:

* **Equality** (always runs): bit-identity on every snapshot of the
  sparse-delta repair scenario, of moving S1 timelines at 0.1 to 15 s
  steps, and of a faulted S1 timeline run, serial and ``workers=4``.
* **Decisions** (always runs; they repeat exactly): the sparse-delta
  scenario alternates the destination order between updates and is
  still one full solve with no ``destination_changes`` (the router
  remembers trees by destination set); every 1 s step of the moving
  timeline is repaired, and the 15 s walk gives up and says so in
  ``fallbacks_large_delta``.
* **Allocation** (always runs): the tracemalloc peak of one sparse
  what-if step — S1 x 100 at a frozen epoch with ``WHATIF_FAILED_ISLS``
  failed ISLs, one healing and one failing per step, ``paths_many`` on
  a warm router, as ``fault_whatif`` runs it — stays within
  ``MAX_WHATIF_STEP_PEAK_MB``: nobody but the router holds the trees
  ``paths_many`` walked, so the next step repairs them in place instead
  of copying two (D, num_nodes) arrays.  With every step's result held,
  what a step leaves behind stays within ``MAX_WHATIF_STEP_GROWTH_KB``:
  a pair whose path did not move gets back the tuple it had.  Its paths
  equal a fresh engine's.
* **Speedup** (needs >= 4 cores, like `make bench-sweep`): on S1 with
  the paper's 100 city ground stations, per-snapshot routing under
  sparse topology deltas — cumulative ISL failures at a frozen epoch,
  so the delta is the failure, not orbital motion — must be at least
  5x faster than solving each snapshot from scratch, and on the moving
  timeline at 1 s steps at least 1.3x faster.

``results/routing_incremental.txt`` carries both sections; its moving-
timeline table (repair vs full solve vs giving up, per step size, with
the share of violated (tree, vertex) pairs) is what
``MAX_VIOLATED_SHARE`` in ``repro.routing.incremental`` rests on.
"""

import dataclasses
import os
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro import Hypatia, random_permutation_pairs
from repro.faults import FaultEvent, FaultSchedule
from repro.routing import incremental
from repro.routing.engine import RoutingEngine
from repro.routing.incremental import IncrementalRouter
from repro.topology.dynamic_state import compute_pair_chunk, snapshot_times

from _common import RESULTS_DIR, write_result

SHELL = "S1"
NUM_CITIES = 100
NUM_STEPS = 15           # cumulative failure steps in the sparse scenario
DROPS_PER_STEP = 1       # new ISL failures per step (sparse deltas)
TIMING_REPS = 5
SPEEDUP_CORES = 4
MIN_SPEEDUP = 5.0
MOVING_STEPS_S = (0.1, 1.0, 2.0, 4.0, 7.0, 15.0)
MOVING_UPDATES = 8       # repaired updates per walk (after a cold one)
MOVING_START_S = 20.0    # past the symmetric t = 0 start
MOVING_REPS = 3
MIN_MOVING_SPEEDUP = 1.3
MOVING_HEADER = "# moving timeline"
WHATIF_FAILED_ISLS = 50  # failed at once in the what-if scenario
WHATIF_STEPS = 25        # measured what-if steps (the median is gated)
#: Gate on the median tracemalloc peak of one what-if step, in MiB.
#: Repairing copies of the two (D, num_nodes) arrays (2 x 1.35 MB on
#: S1 x 100) peaked at 3.4-4.6 MiB (median 3.8); in place at 0.9-2.0
#: (median 1.2).
MAX_WHATIF_STEP_PEAK_MB = 2.0
#: Gate on the memory a what-if step leaves behind while every step's
#: ``paths_many`` result is held, in KiB per step (tracemalloc, mean
#: over the steps after the first).  Fresh lists of fresh ints for
#: every pair retained ~44 KiB per step on S1 x 100; a list of 100
#: shared tuples, with new tuples only for the few pairs that moved,
#: retains ~1.
MAX_WHATIF_STEP_GROWTH_KB = 8.0
WHATIF_HEADER = "# what-if step allocation"

_CACHE = {}


def _network():
    """The S1 constellation with city ground stations (built once)."""
    if "network" not in _CACHE:
        hypatia = Hypatia.from_shell_name(SHELL, num_cities=NUM_CITIES)
        _CACHE["network"] = hypatia.network
        _CACHE["base"] = hypatia.network.snapshot(0.0)
    return _CACHE["network"], _CACHE["base"]


def _masked(snapshot, drop_indices):
    """The snapshot with some ISLs failed (positions unchanged)."""
    keep = np.ones(len(snapshot.isl_pairs), dtype=bool)
    keep[drop_indices] = False
    return dataclasses.replace(
        snapshot, isl_pairs=snapshot.isl_pairs[keep],
        isl_lengths_m=snapshot.isl_lengths_m[keep])


def _failure_sequence(base, rng):
    """Cumulative-outage snapshots: each step fails DROPS_PER_STEP more
    ISLs on top of the previous step's failures, so consecutive
    snapshots differ by a handful of directed edges."""
    snapshots = []
    failed = np.array([], dtype=np.int64)
    for _ in range(NUM_STEPS):
        fresh = rng.choice(len(base.isl_pairs), size=DROPS_PER_STEP,
                           replace=False)
        failed = np.union1d(failed, fresh)
        snapshots.append(_masked(base, failed))
    return snapshots


def _destination_orders():
    """The destinations, ascending on even updates and descending on odd
    ones: one set, so every update after the first is a repair."""
    ascending = list(range(NUM_CITIES))
    return [ascending, ascending[::-1]]


def test_sparse_delta_parity_on_every_snapshot():
    network, base = _network()
    orders = _destination_orders()
    snapshots = _failure_sequence(base, np.random.default_rng(7))
    scratch = RoutingEngine(network)
    router = IncrementalRouter(network)
    router.route_to_many(base, orders[0])
    for step, snapshot in enumerate(snapshots, start=1):
        destinations = orders[step % 2]
        expected = scratch.route_to_many(snapshot, destinations)
        repaired = router.route_to_many(snapshot, destinations)
        assert expected.dst_gids == repaired.dst_gids
        assert np.array_equal(expected.distance_m, repaired.distance_m)
        assert np.array_equal(expected.next_hop, repaired.next_hop)
    assert router.inc_perf.repairs == NUM_STEPS
    assert router.inc_perf.fallbacks_large_delta == 0
    assert router.perf.dijkstra_calls == 1
    assert router.inc_perf.destination_changes == 0


def test_incremental_speedup_on_sparse_deltas():
    network, base = _network()
    orders = _destination_orders()
    snapshots = _failure_sequence(base, np.random.default_rng(7))

    scratch_best = incremental_best = float("inf")
    counters = None
    for _ in range(TIMING_REPS):
        scratch = RoutingEngine(network)
        scratch.route_to_many(base, orders[0])
        start = time.perf_counter()
        for step, snapshot in enumerate(snapshots, start=1):
            scratch.route_to_many(snapshot, orders[step % 2])
        scratch_best = min(scratch_best,
                           (time.perf_counter() - start) / len(snapshots))

        router = IncrementalRouter(network)
        router.route_to_many(base, orders[0])
        start = time.perf_counter()
        for step, snapshot in enumerate(snapshots, start=1):
            router.route_to_many(snapshot, orders[step % 2])
        incremental_best = min(
            incremental_best,
            (time.perf_counter() - start) / len(snapshots))
        counters = router.inc_perf

    speedup = scratch_best / incremental_best
    assert counters.repairs == NUM_STEPS
    assert router.perf.dijkstra_calls == 1
    assert counters.destination_changes == 0

    rows = [
        "# incremental routing speedup (S1, frozen-epoch ISL failures, "
        "destination order alternating)",
        f"shell                 {SHELL:>10s}",
        f"cities                {NUM_CITIES:10d}",
        f"snapshots             {NUM_STEPS:10d}",
        f"drops_per_step        {DROPS_PER_STEP:10d}",
        f"scratch_snapshot_s    {scratch_best:10.6f}",
        f"incremental_snapshot_s{incremental_best:10.6f}",
        f"speedup               {speedup:10.2f}",
        f"min_speedup           {MIN_SPEEDUP:10.2f}",
        f"edges_changed         {counters.edges_changed:10d}",
        f"vertices_invalidated  {counters.vertices_invalidated:10d}",
    ]
    write_result("routing_incremental", rows)

    if (os.cpu_count() or 1) < SPEEDUP_CORES:
        pytest.skip(f"speedup gate needs >= {SPEEDUP_CORES} cores "
                    f"(measured {speedup:.2f}x)")
    assert speedup >= MIN_SPEEDUP, (
        f"incremental repair reached only {speedup:.2f}x over scratch "
        f"per snapshot (gate {MIN_SPEEDUP:.1f}x)")


def test_whatif_step_allocation():
    network, base = _network()
    window = WHATIF_FAILED_ISLS
    order = np.random.default_rng(0).permutation(len(base.isl_pairs))
    snapshots = [_masked(base, order[step:step + window])
                 for step in range(WHATIF_STEPS + 1)]
    pairs = random_permutation_pairs(NUM_CITIES)
    router = IncrementalRouter(network)
    router.paths_many(snapshots[0], pairs)
    # Every step's result is held, as a what-if study keeps its history.
    held, peaks, traced = [], [], []
    tracemalloc.start()
    try:
        for snapshot in snapshots[1:]:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            held.append(router.paths_many(snapshot, pairs))
            current, peak = tracemalloc.get_traced_memory()
            peaks.append((peak - before) / 2 ** 20)
            traced.append(current)
    finally:
        tracemalloc.stop()
    for snapshot, paths in zip(snapshots[1:], held):
        assert paths == RoutingEngine(network).paths_many(snapshot, pairs)
    assert router.inc_perf.repairs == WHATIF_STEPS
    assert router.perf.dijkstra_calls == 1
    peak = float(np.median(peaks))
    # The first step also replaces the walk remembered before tracing
    # began; from then on a step's new walk frees a traced one.
    growth = (traced[-1] - traced[0]) / (len(traced) - 1) / 2 ** 10

    rows = [
        f"{WHATIF_HEADER} (S1 x {NUM_CITIES}, {window} failed ISLs, "
        f"paths_many on a warm router, every result held, tracemalloc "
        f"over {WHATIF_STEPS} steps)",
        f"whatif_step_peak_mb   {peak:10.2f}",
        f"whatif_step_peak_max  {max(peaks):10.2f}",
        f"max_whatif_peak_mb    {MAX_WHATIF_STEP_PEAK_MB:10.2f}",
        f"whatif_step_growth_kb {growth:10.2f}",
        f"max_whatif_growth_kb  {MAX_WHATIF_STEP_GROWTH_KB:10.2f}",
    ]
    # Between the sparse-delta section and the moving-timeline one.
    path = RESULTS_DIR / "routing_incremental.txt"
    text = path.read_text() if path.exists() else ""
    head = text.split(WHATIF_HEADER)[0].split(MOVING_HEADER)[0]
    tail = (MOVING_HEADER + text.split(MOVING_HEADER, 1)[1]
            if MOVING_HEADER in text else "")
    write_result("routing_incremental",
                 head.splitlines() + rows + tail.splitlines())

    assert peak <= MAX_WHATIF_STEP_PEAK_MB, (
        f"a what-if step peaked at {peak:.2f} MiB (gate "
        f"{MAX_WHATIF_STEP_PEAK_MB:.1f} MiB): is the repair copying the "
        f"remembered trees?")
    assert growth <= MAX_WHATIF_STEP_GROWTH_KB, (
        f"a what-if step retained {growth:.1f} KiB (gate "
        f"{MAX_WHATIF_STEP_GROWTH_KB:.0f} KiB): are unchanged paths "
        f"cut afresh instead of shared?")


def _timed_walk(network, snapshots, destinations, expected=None):
    """Seconds per update (the cold first one excluded) of a fresh
    incremental router over ``snapshots``, and the router; with
    ``expected`` every update is asserted equal to it."""
    router = IncrementalRouter(network)
    elapsed = 0.0
    for index, snapshot in enumerate(snapshots):
        start = time.perf_counter()
        routed = router.route_to_many(snapshot, destinations)
        if index:
            elapsed += time.perf_counter() - start
        if expected is not None:
            assert np.array_equal(expected[index].distance_m,
                                  routed.distance_m), index
            assert np.array_equal(expected[index].next_hop,
                                  routed.next_hop), index
    return elapsed / (len(snapshots) - 1), router


def test_moving_timeline_repair_and_crossover():
    network, _ = _network()
    destinations = list(range(NUM_CITIES))
    pairs = NUM_CITIES * network.num_nodes
    rows = [
        f"{MOVING_HEADER} (S1 x {NUM_CITIES}, ms per update, best of "
        f"{MOVING_REPS} walks of {MOVING_UPDATES} updates)",
        "# full: from-scratch solve; repair: re-sum repair with the "
        "give-up bound lifted;",
        "# shipped: the router as shipped (MAX_VIOLATED_SHARE "
        f"{100 * incremental.MAX_VIOLATED_SHARE:.1f} %), "
        "repaired/gave_up its decisions",
        f"{'step_s':>7s} {'violated_%':>10s} {'full_ms':>8s} "
        f"{'repair_ms':>9s} {'shipped_ms':>10s} {'repaired':>8s} "
        f"{'gave_up':>7s}",
    ]
    measured = {}
    for step_s in MOVING_STEPS_S:
        snapshots = [network.snapshot(MOVING_START_S + index * step_s)
                     for index in range(MOVING_UPDATES + 1)]
        scratch = RoutingEngine(network)
        full_best = repair_best = shipped_best = float("inf")
        expected = []
        for rep in range(MOVING_REPS):
            start = time.perf_counter()
            solved = [scratch.route_to_many(snapshot, destinations)
                      for snapshot in snapshots]
            full_best = min(full_best, (time.perf_counter() - start)
                            / len(snapshots))
            expected = expected or solved
            # Equality is asserted on the first walk of each router.
            check = expected if rep == 0 else None
            with mock.patch.object(incremental, "MAX_VIOLATED_SHARE", 1.0):
                per_update, lifted = _timed_walk(
                    network, snapshots, destinations, check)
            repair_best = min(repair_best, per_update)
            per_update, shipped = _timed_walk(
                network, snapshots, destinations, check)
            shipped_best = min(shipped_best, per_update)
        assert lifted.inc_perf.reweight_repairs == MOVING_UPDATES
        counters = shipped.inc_perf
        assert (counters.reweight_repairs + counters.fallbacks_large_delta
                == MOVING_UPDATES)
        assert shipped.perf.dijkstra_calls == (
            1 + counters.fallbacks_large_delta)
        violated = lifted.inc_perf.edges_violated / (MOVING_UPDATES * pairs)
        measured[step_s] = (full_best, shipped_best, counters)
        rows.append(
            f"{step_s:7.1f} {100 * violated:10.2f} {1e3 * full_best:8.2f} "
            f"{1e3 * repair_best:9.2f} {1e3 * shipped_best:10.2f} "
            f"{counters.reweight_repairs:8d} "
            f"{counters.fallbacks_large_delta:7d}")
    full_s, shipped_s, counters = measured[1.0]
    speedup = full_s / shipped_s
    rows.append(f"speedup_at_1s         {speedup:10.2f}")
    rows.append(f"min_speedup_at_1s     {MIN_MOVING_SPEEDUP:10.2f}")

    # Append to (or refresh in) the file the sparse-delta test wrote.
    path = RESULTS_DIR / "routing_incremental.txt"
    head = path.read_text().split(MOVING_HEADER)[0] if path.exists() else ""
    write_result("routing_incremental", head.splitlines() + rows)

    assert counters.reweight_repairs == MOVING_UPDATES
    assert measured[15.0][2].fallbacks_large_delta > 0
    if (os.cpu_count() or 1) < SPEEDUP_CORES:
        pytest.skip(f"speedup gate needs >= {SPEEDUP_CORES} cores "
                    f"(measured {speedup:.2f}x at 1 s steps)")
    assert speedup >= MIN_MOVING_SPEEDUP, (
        f"re-sum repair reached only {speedup:.2f}x over the full solve "
        f"at 1 s steps (gate {MIN_MOVING_SPEEDUP:.1f}x)")


def test_faulted_run_parity_serial_and_workers():
    faults = FaultSchedule([
        FaultEvent.satellite_outage(100, 1.0, 5.0),
        FaultEvent.satellite_outage(700, 2.0, 6.0),
        FaultEvent.isl_cut(40, 41, 0.5, 4.5),
        FaultEvent.gsl_cut(3, 1.5, 4.0),
    ])
    hypatia = Hypatia.from_shell_name(SHELL, num_cities=10, faults=faults)
    pairs = [(0, 5), (1, 7), (2, 9), (8, 3)]
    kwargs = dict(pairs=pairs, duration_s=6.0, step_s=1.0)
    _, distances, paths = compute_pair_chunk(
        hypatia.network, pairs, snapshot_times(6.0, 1.0),
        engine=RoutingEngine(hypatia.network))
    serial = hypatia.compute_timelines(**kwargs)
    parallel = hypatia.compute_timelines(workers=4, **kwargs)
    for row, pair in enumerate(pairs):
        for run in (serial, parallel):
            assert np.array_equal(run[pair].distances_m, distances[row],
                                  equal_nan=True), pair
            assert run[pair].paths == [step[row] for step in paths], pair
