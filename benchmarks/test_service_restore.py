"""Service restore-parity gate (the `make bench-service` part of
`make check`).

The live-service contract (DESIGN.md "Live service & checkpointing"):
a simulation checkpointed mid-run, restored from the file, and advanced
to the horizon must produce a deterministic report and per-flow FCT
array bit-identical to a run that never stopped — on the packet engine
and the max-min fluid engine.  This gate re-proves the contract at
every `make check` and times the checkpoint machinery itself (save/load
wall times and checkpoint sizes, in ``results/service_restore.txt``).
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
import pytest

from repro.constellations.builder import Constellation
from repro.geo.coordinates import GeodeticPosition
from repro.ground.stations import GroundStation
from repro.orbits.shell import Shell
from repro.service import LiveSimulationService
from repro.sweep.spec import NetworkSpec
from repro.topology.network import LeoNetwork
from repro.traffic import FlowRequest, WorkloadSchedule

from _common import write_result

HORIZON_S = 12.0
EPOCH_S = 1.0
CHECKPOINT_EPOCH = 6
NUM_FLOWS = 30

ENGINES = ["packet", "fluid"]

_SITES = [
    ("Quito", 0.0, -78.5),
    ("Nairobi", -1.3, 36.8),
    ("Singapore", 1.35, 103.8),
    ("Honolulu", 21.3, -157.9),
    ("Sydney", -33.9, 151.2),
    ("Madrid", 40.4, -3.7),
]


def _spec() -> NetworkSpec:
    shell = Shell(name="X1", num_orbits=8, satellites_per_orbit=8,
                  altitude_m=600_000.0, inclination_deg=53.0)
    stations = [
        GroundStation(gid=i, name=name,
                      position=GeodeticPosition(lat, lon, 0.0))
        for i, (name, lat, lon) in enumerate(_SITES)
    ]
    network = LeoNetwork(Constellation([shell]), stations,
                         min_elevation_deg=10.0)
    rng = random.Random(17)
    requests = []
    for _ in range(NUM_FLOWS):
        src, dst = rng.sample(range(len(_SITES)), 2)
        requests.append(FlowRequest(
            t_start_s=rng.uniform(0.0, HORIZON_S * 0.7),
            src_gid=src, dst_gid=dst,
            size_bytes=rng.randint(20_000, 120_000)))
    return NetworkSpec.from_network(network).with_workload(
        WorkloadSchedule(requests, seed=17))


def _service(engine: str) -> LiveSimulationService:
    return LiveSimulationService(_spec(), engine=engine,
                                 horizon_s=HORIZON_S, epoch_s=EPOCH_S)


def _parity_form(service: LiveSimulationService) -> str:
    return json.dumps(service.report().as_dict(deterministic=True),
                      sort_keys=True)


def test_restore_parity_all_engines(tmp_path):
    lines = []
    for label in ENGINES:
        baseline = _service(label)
        baseline.run_to_horizon()

        interrupted = _service(label)
        interrupted.advance_epoch(CHECKPOINT_EPOCH)
        path = tmp_path / f"{label}.ckpt"
        start = time.perf_counter()
        interrupted.save(str(path))
        save_s = time.perf_counter() - start
        size = path.stat().st_size
        start = time.perf_counter()
        restored = LiveSimulationService.resume(str(path))
        load_s = time.perf_counter() - start
        restored.run_to_horizon()

        assert _parity_form(restored) == _parity_form(baseline), \
            f"{label}: restored run diverged from the uninterrupted run"
        assert np.array_equal(restored.fct_values(),
                              baseline.fct_values(), equal_nan=True), \
            f"{label}: restored FCT array diverged"

        lines.append(f"{label:18s} save {save_s * 1e3:7.1f} ms  "
                     f"load {load_s * 1e3:7.1f} ms  "
                     f"{size / 1024:8.1f} KiB  parity OK")

    write_result("service_restore", lines)


@pytest.mark.parametrize("workers", [None, 4])
def test_sweep_warm_start_parity(workers, tmp_path):
    from repro.service import resume_sweep, sweep_with_checkpoint
    from repro.sweep.engine import sweep_timelines
    spec = _spec()
    pairs = [(0, 1), (2, 3), (4, 5)]
    times_s = np.arange(0.0, 13.0, 1.0)
    expected = sweep_timelines(spec, pairs, times_s)
    path = tmp_path / "sweep.ckpt"
    sweep_with_checkpoint(spec, pairs, times_s, str(path),
                          checkpoint_index=5)
    resumed = resume_sweep(str(path), workers=workers)
    for pair in expected:
        assert np.array_equal(resumed[pair].distances_m,
                              expected[pair].distances_m, equal_nan=True)
        assert resumed[pair].paths == expected[pair].paths
