"""Service restore-parity gate (the `make bench-service` part of
`make check`).

The live-service contract (DESIGN.md "Live service & checkpointing"):
a simulation checkpointed mid-run, restored from the file, and advanced
to the horizon must produce a deterministic report and per-flow FCT
array bit-identical to a run that never stopped — on the packet engine
and the max-min fluid engine.  This gate re-proves the contract at
every `make check` and measures the checkpoint machinery itself
(``results/service_restore.txt``): save and restore CPU time, the file
size, and the restore's CPU over that of building the service and
advancing it to the checkpoint's clock.  A restore replays the run, so
that ratio is its cost model; it must stay <= ``MAX_RESTORE_RATIO``.
Both sides are timed in one process, so no core count bears on it.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np

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
#: Restore CPU over build + advance-to-clock CPU.
MAX_RESTORE_RATIO = 2.0

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
    lines = [f"{'engine':8s} {'save_cpu_ms':>11s} {'restore_cpu_ms':>14s} "
             f"{'bytes':>8s} {'restore/(build+advance)':>24s}"]
    for label in ENGINES:
        baseline = _service(label)
        baseline.run_to_horizon()

        start = time.process_time()
        interrupted = _service(label)
        interrupted.advance_epoch(CHECKPOINT_EPOCH)
        build_advance_s = time.process_time() - start
        path = tmp_path / f"{label}.ckpt"
        start = time.process_time()
        interrupted.save(str(path))
        save_s = time.process_time() - start
        size = path.stat().st_size
        start = time.process_time()
        restored = LiveSimulationService.resume(str(path))
        restore_s = time.process_time() - start
        restored.run_to_horizon()

        assert _parity_form(restored) == _parity_form(baseline), \
            f"{label}: restored run diverged from the uninterrupted run"
        assert np.array_equal(restored.fct_values(),
                              baseline.fct_values(), equal_nan=True), \
            f"{label}: restored FCT array diverged"
        ratio = restore_s / build_advance_s
        lines.append(f"{label:8s} {save_s * 1e3:11.1f} "
                     f"{restore_s * 1e3:14.1f} {size:8d} {ratio:24.2f}")
        assert ratio <= MAX_RESTORE_RATIO, \
            f"{label}: a restore cost {ratio:.2f}x building and advancing"

    write_result("service_restore", lines)
