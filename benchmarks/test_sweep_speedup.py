"""Sweep-engine gate (the `make bench-sweep` part of `make check`).

The parallel snapshot-sweep contract (DESIGN.md "Sweep engine"): on the
Fig. 8 path-evolution workload — a permutation traffic matrix walked over
forwarding-state snapshots — ``workers=N`` must be bit-identical to
serial, and at 4 workers the wall-clock speedup must reach 1.7x.  Each
chunk duplicates two pieces of work, both amortized over the schedule:
the network rebuild from the spec, and a cold routing solve at its
first snapshot.

The equality gate always runs, on K1 and on the two-shell Starlink
S1+S2 (so multi-shell array builds and ISL wiring cross the process
boundary too); the speedup gate needs real parallelism and is skipped
on machines with fewer than 4 cores.
"""

import os
import time

import numpy as np
import pytest

from repro import Hypatia, random_permutation_pairs
from repro.constellations.builder import Constellation
from repro.constellations.definitions import STARLINK_SHELLS
from repro.ground.stations import ground_stations_from_cities
from repro.obs import spans
from repro.sweep import NetworkSpec, sweep_timelines
from repro.topology.dynamic_state import snapshot_times

from _common import scaled, write_result

NUM_CITIES = scaled(20, 100)
DURATION_S = scaled(16.0, 200.0)
STEP_S = scaled(2.0, 0.5)
SPEEDUP_WORKERS = 4
MIN_SPEEDUP = 1.7

_CACHE = {}


#: Equality-gate networks: the speedup workload (K1), and the first
#: two Starlink shells as one constellation.
EQUALITY_NETWORKS = ("K1", "S1+S2")
TWO_SHELL_CITIES = 20


def _workload(name: str = "K1"):
    """The Fig. 8-style sweep inputs (built once per process)."""
    if name not in _CACHE:
        if name == "K1":
            cities = NUM_CITIES
            hypatia = Hypatia.from_shell_name("K1", num_cities=cities)
        else:
            cities = TWO_SHELL_CITIES
            hypatia = Hypatia(
                Constellation(STARLINK_SHELLS.shells[:2]),
                ground_stations_from_cities(count=cities),
                min_elevation_deg=STARLINK_SHELLS.min_elevation_deg)
        _CACHE[name] = (NetworkSpec.from_network(hypatia.network),
                        random_permutation_pairs(cities),
                        snapshot_times(DURATION_S, STEP_S))
    return _CACHE[name]


def _timed_sweep(workers: int, name: str = "K1"):
    spec, pairs, times = _workload(name)
    start = time.perf_counter()
    timelines = sweep_timelines(spec, pairs, times, workers=workers)
    return timelines, time.perf_counter() - start


def _span_seconds(profile: dict, name: str) -> float:
    """Inclusive seconds of the spans called ``name`` in a worker's
    serialized span tree (:meth:`SpanProfiler.as_dict`)."""
    return sum(end - start for span_name, start, end, _ in profile["spans"]
               if span_name == name and end is not None)


@pytest.mark.parametrize("name", EQUALITY_NETWORKS)
def test_parallel_sweep_is_bit_identical_to_serial(name):
    spec, pairs, times = _workload(name)
    assert len(spec.shells) == len(name.split("+"))
    serial, _ = _timed_sweep(1, name=name)
    parallel, _ = _timed_sweep(SPEEDUP_WORKERS, name=name)
    assert set(parallel) == set(serial)
    for pair in pairs:
        assert np.array_equal(parallel[pair].distances_m,
                              serial[pair].distances_m,
                              equal_nan=True), pair
        assert parallel[pair].paths == serial[pair].paths, pair
        assert np.array_equal(parallel[pair].times_s, times)


@pytest.mark.skipif((os.cpu_count() or 1) < SPEEDUP_WORKERS,
                    reason=f"speedup gate needs >= {SPEEDUP_WORKERS} cores")
def test_parallel_sweep_speedup():
    _, serial_wall = _timed_sweep(1)
    _, parallel_wall = _timed_sweep(SPEEDUP_WORKERS)
    speedup = serial_wall / parallel_wall
    # The per-worker breakdown comes from a separate profiled run, so
    # the gated timings above carry no profiling cost.
    with spans.profiled() as profiler:
        _timed_sweep(SPEEDUP_WORKERS)

    rows = [
        "# sweep engine speedup (Fig. 8 path-evolution workload)",
        f"cities                {NUM_CITIES:10d}",
        f"snapshots             {len(_workload()[2]):10d}",
        f"serial_wall_s         {serial_wall:10.3f}",
        f"parallel_wall_s       {parallel_wall:10.3f}",
        f"workers               {SPEEDUP_WORKERS:10d}",
        f"speedup               {speedup:10.2f}",
        f"min_speedup           {MIN_SPEEDUP:10.2f}",
    ]
    for profile, meta in profiler.children:
        count = meta["snapshot_stop"] - meta["snapshot_start"]
        wall = _span_seconds(profile, "sweep.chunk")
        build = _span_seconds(profile, "sweep.spec_build")
        rows.append(f"worker_{meta['chunk_index']}  {count:4d} snapshots  "
                    f"wall {wall:7.3f}s  (build {build:6.3f}s)")
    write_result("sweep_speedup", rows)

    assert speedup >= MIN_SPEEDUP, (
        f"4-worker sweep reached only {speedup:.2f}x over serial "
        f"(gate {MIN_SPEEDUP:.1f}x)")
