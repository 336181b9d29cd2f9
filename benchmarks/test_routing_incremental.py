"""Incremental-routing gate (the `make bench-routing` part of `make check`).

The incremental routing contract (DESIGN.md "Incremental routing"): the
:class:`repro.routing.incremental.IncrementalRouter` diffs consecutive
snapshots and repairs only the affected parts of the batched destination
trees, and whichever path it takes — cache hit, repair, or large-delta
fallback — its distances and next hops are bit-identical to a
from-scratch :class:`repro.routing.engine.RoutingEngine`.

Two gates:

* **Equality** (always runs): bit-identity on every snapshot of the
  sparse-delta repair scenario, and on every snapshot of a faulted S1
  timeline run, both serial and with ``workers=4``.
* **Speedup** (needs >= 4 cores, like `make bench-sweep`): on S1 with
  the paper's 100 city ground stations, per-snapshot routing under
  sparse topology deltas — cumulative ISL failures at a frozen epoch,
  so the delta is the failure, not orbital motion — must be at least
  5x faster than solving each snapshot from scratch.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro import Hypatia
from repro.faults import FaultEvent, FaultSchedule
from repro.routing.engine import RoutingEngine
from repro.routing.incremental import IncrementalRouter
from repro.topology.dynamic_state import (DynamicState, compute_pair_chunk,
                                          snapshot_times)

from _common import write_result

SHELL = "S1"
NUM_CITIES = 100
NUM_STEPS = 15           # cumulative failure steps in the sparse scenario
DROPS_PER_STEP = 1       # new ISL failures per step (sparse deltas)
TIMING_REPS = 5
SPEEDUP_CORES = 4
MIN_SPEEDUP = 5.0

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


def test_sparse_delta_parity_on_every_snapshot():
    network, base = _network()
    destinations = list(range(NUM_CITIES))
    snapshots = _failure_sequence(base, np.random.default_rng(7))
    scratch = RoutingEngine(network)
    router = IncrementalRouter(network)
    router.route_to_many(base, destinations)
    for snapshot in snapshots:
        expected = scratch.route_to_many(snapshot, destinations)
        repaired = router.route_to_many(snapshot, destinations)
        assert np.array_equal(expected.distance_m, repaired.distance_m)
        assert np.array_equal(expected.next_hop, repaired.next_hop)
    assert router.inc_perf.repairs == NUM_STEPS
    assert router.inc_perf.fallbacks_large_delta == 0


def test_incremental_speedup_on_sparse_deltas():
    network, base = _network()
    destinations = list(range(NUM_CITIES))
    snapshots = _failure_sequence(base, np.random.default_rng(7))

    scratch_best = incremental_best = float("inf")
    counters = None
    for _ in range(TIMING_REPS):
        scratch = RoutingEngine(network)
        scratch.route_to_many(base, destinations)
        start = time.perf_counter()
        for snapshot in snapshots:
            scratch.route_to_many(snapshot, destinations)
        scratch_best = min(scratch_best,
                           (time.perf_counter() - start) / len(snapshots))

        router = IncrementalRouter(network)
        router.route_to_many(base, destinations)
        start = time.perf_counter()
        for snapshot in snapshots:
            router.route_to_many(snapshot, destinations)
        incremental_best = min(
            incremental_best,
            (time.perf_counter() - start) / len(snapshots))
        counters = router.inc_perf

    speedup = scratch_best / incremental_best
    assert counters.repairs == NUM_STEPS

    rows = [
        "# incremental routing speedup (S1, frozen-epoch ISL failures)",
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
    scratch = compute_pair_chunk(hypatia.network, pairs,
                                 snapshot_times(6.0, 1.0),
                                 engine=RoutingEngine(hypatia.network))
    serial = DynamicState(hypatia.network, **kwargs).compute()
    parallel = DynamicState(hypatia.network, **kwargs).compute(workers=4)
    for pair in pairs:
        distances, paths = scratch[pair]
        for run in (serial, parallel):
            assert np.array_equal(run[pair].distances_m, distances,
                                  equal_nan=True), pair
            assert run[pair].paths == paths, pair
