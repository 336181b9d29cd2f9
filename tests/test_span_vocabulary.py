"""The product's spans speak the end-to-end benchmark's layer vocabulary.

``BENCHMARK.json`` times each layer under one name (``<layer>.self_s`` or
``<layer>.calls``).  Profiled with :func:`repro.obs.spans.profiled`, a
handful of small runs that pass through every layer must record a span
under each of those names, so ``--profile-out`` and the benchmark's
per-layer table name the same things.  ``transport.tcp`` is the one
exception: it times every packet handler call, and the product keeps its
spans at phase granularity (DESIGN.md "Profiling").
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.faults import FaultEvent
from repro.fluid.engine import FluidFlow, FluidSimulation
from repro.obs import spans
from repro.routing.incremental import IncrementalRouter
from repro.service import LiveSimulationService, ServiceServer
from repro.service.checkpoint import load_checkpoint
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.sweep import NetworkSpec, sweep_timelines
from repro.traffic import FlowArrivalProcess, TrafficMatrix
from repro.transport.tcp import TcpFlow

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Layers only the harness names (see the module docstring).
HARNESS_ONLY = {"transport.tcp"}

#: Spans the product records that ``BENCHMARK.json`` reports under
#: another statistic (``.p50_ms`` or ``.ms``), not ``.self_s``/``.calls``.
PRODUCT_ONLY = {"service.attach", "service.inject", "service.report",
                "service.query"}


def benchmark_layers():
    """Every layer the benchmark reports a ``.self_s`` or ``.calls`` of."""
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    layers = set()
    for metric in metrics:
        layer, _, statistic = metric["name"].rpartition(".")
        if statistic in ("self_s", "calls"):
            layers.add(layer)
    return layers


def _names(profiler):
    return {phase["name"] for phase in profiler.phase_summary()["phases"]}


def _fluid_service_session(spec, tmp_path):
    """A fluid service driven through the server's command dispatch."""
    workload = FlowArrivalProcess(
        TrafficMatrix.gravity(count=6, total_offered_bps=2e7),
        mean_size_bytes=200_000.0, seed=3).generate(4.0)
    service = LiveSimulationService(spec.with_workload(workload),
                                    engine="fluid", horizon_s=4.0)
    dispatch = ServiceServer(service)._dispatch
    later = workload.shifted(1.0)
    checkpoint = str(tmp_path / "session.ckpt")
    for command in (
            {"cmd": "advance"},
            {"cmd": "attach_workload", "workload": later.as_dict()},
            {"cmd": "inject_fault", "events": [
                FaultEvent.satellite_outage(9, 2.0, 3.0).as_dict()]},
            {"cmd": "advance"},
            {"cmd": "checkpoint", "path": checkpoint},
            {"cmd": "metrics", "include_series": False},
            {"cmd": "run_to_horizon"},
            {"cmd": "report", "deterministic": True}):
        assert dispatch(command)["ok"], command
    load_checkpoint(checkpoint).run_to_horizon()


def test_product_spans_cover_the_benchmark_layers(small_network, tmp_path):
    expected = benchmark_layers()
    assert HARNESS_ONLY <= expected
    assert len(expected) >= 17
    spec = NetworkSpec.from_network(small_network)
    with spans.profiled() as profiler:
        # A static fluid run.
        FluidSimulation(small_network, [FluidFlow(0, 1), FluidFlow(2, 3)]
                        ).run(2.0, step_s=1.0)
        _fluid_service_session(spec, tmp_path)
        # A packet run.
        sim = PacketSimulator(small_network, LinkConfig(
            isl_rate_bps=1e7, gsl_rate_bps=1e7))
        TcpFlow(0, 1, max_packets=20).install(sim)
        sim.run(0.5)
        # One what-if step: a few ISLs fail at a frozen epoch.
        base = small_network.snapshot(0.0)
        keep = np.ones(len(base.isl_pairs), dtype=bool)
        keep[[3, 17, 40]] = False
        faulted = dataclasses.replace(base, isl_pairs=base.isl_pairs[keep],
                                      isl_lengths_m=base.isl_lengths_m[keep])
        router = IncrementalRouter(small_network)
        router.paths_many(base, [(0, 1), (3, 2)])
        router.paths_many(faulted, [(0, 1), (3, 2)])
        # A serial sweep and a two-worker one.
        times = np.array([0.0, 5.0, 10.0, 15.0])
        sweep_timelines(small_network, [(0, 1)], times)
        sweep_timelines(spec, [(0, 1)], times, workers=2)
    recorded = _names(profiler)
    missing = (expected - HARNESS_ONLY) - recorded
    assert not missing, f"no product span for {sorted(missing)}"
    assert not PRODUCT_ONLY - recorded
    assert not HARNESS_ONLY & recorded
    assert profiler.dropped == 0
    # Each worker's tree came back: sweep.chunk around the timeline.
    assert len(profiler.children) == 2
    for profile, _ in profiler.children:
        assert {"sweep.chunk", "topology.timeline"} <= {
            span[0] for span in profile["spans"]}
