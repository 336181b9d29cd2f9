"""The six pinned end-to-end workloads.

Each workload builds its inputs from ``seed`` alone, sizes its timed body
from ``seconds`` (the body is a fixed amount of *simulated* work — about
``seconds`` of CPU on the 2-core reference box at the commit that defined
the benchmark — so a faster simulator finishes sooner and every simulated
output repeats exactly), runs one untimed warm-up step in set-up, and
checks its own outputs after the body.  Only default-facing public API is
called: no ``kernel=``/``routing=`` switches, no transport shim classes,
no perf-counter classes.

The body is cut into *units* of at most a few hundred milliseconds (a
window of snapshots, a fluid step, a block of packet time, one service
command, a block of what-if steps) and the CPU time of each is divided by
the machine's momentary slowdown, probed right before and after it with a
fixed calibration kernel (:class:`Calibration`).  On the shared 2-core box
other tenants slow everything by 10-40 % for seconds to minutes at a time;
that slowdown is common to the kernel and the workload, so *calibrated*
CPU seconds repeat within a few per cent where raw ones do not.

``README.md`` says why each workload is here and which layers it loads.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import resource
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

#: Simulated work per CPU-second of body on the reference box (2 cores,
#: py3.11 / numpy 2.4 / scipy 1.17), at the commit defining the benchmark.
RTT_SNAPSHOTS_PER_S = 17.5
FLUID_STEPS_PER_S = 2.35
PACKET_SIM_S_PER_S = 0.72
SERVICE_EPOCHS_PER_S = 9.8
WHATIF_STEPS_PER_S = 150.0


def cpu_seconds() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Calibration:
    """The machine's momentary slowdown, from a fixed kernel.

    The kernel mixes what the simulator is made of — interpreter loops,
    dict and tuple churn, numpy sorts and gathers — and takes under a
    millisecond, so the best of a few runs is a sharp reading of how fast
    this core is *right now*.  ``slowdown()`` is that reading over
    ``REFERENCE_S``, the kernel's time on the quiet reference box; a
    reading is reused while younger than ``MAX_AGE_S``.
    """

    REFERENCE_S = 0.00072
    MAX_AGE_S = 0.05
    RUNS = 5

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(20_000)
        self._slowdown = 1.0
        self._read_at = float("-inf")
        for _ in range(20):
            self._kernel()

    def _kernel(self) -> float:
        total = 0
        for i in range(3000):
            total += i * i % 7
        table = {i: (i, i) for i in range(2000)}
        data = self._data
        order = np.argsort(data)[:5000]
        return (total + len(table) + np.cumsum(np.sort(data))[-1]
                + data[order].sum())

    def slowdown(self) -> float:
        if time.perf_counter() - self._read_at > self.MAX_AGE_S:
            best = float("inf")
            for _ in range(self.RUNS):
                started = time.process_time()
                self._kernel()
                best = min(best, time.process_time() - started)
            self._slowdown = best / self.REFERENCE_S
            self._read_at = time.perf_counter()
        return self._slowdown


def calibrated_seconds(units: List[Tuple[float, float]]) -> float:
    """Sum of ``(cpu_s, slowdown)`` units at reference speed."""
    return sum(cpu_s / slowdown for cpu_s, slowdown in units)


class Check(NamedTuple):
    """One correctness check made outside the timed body."""
    name: str
    ok: bool
    detail: str = ""


class Workload:
    """Set-up, timed body and verification of one workload."""

    name = ""

    def __init__(self, seed: int, seconds: float, tiny: bool,
                 scratch_dir: str,
                 span: Callable[[str], Any]) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        #: Internal size factor of the self-check (seconds-long runs).
        self.tiny = tiny
        self.scratch_dir = scratch_dir
        #: ``span(name)`` context manager: the tracer's in a traced run.
        self.span = span
        self.cities = 20 if tiny else 100
        self.calibration = Calibration()
        #: ``(cpu_s, slowdown)`` of every timed unit of the body.
        self.units: List[Tuple[float, float]] = []
        #: Simulated seconds the body advanced.
        self.sim_seconds = 0.0
        #: Driver operations attempted / failed during the body.
        self.operations = 0
        self.failed_operations = 0
        #: Exactly-repeating work counts (events, flows, steps, ...).
        self.counters: Dict[str, float] = {}
        #: Harness-observed latencies and sizes (service commands, ...).
        self.extras: Dict[str, Any] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def body(self) -> None:
        raise NotImplementedError

    def verify(self) -> List[Check]:
        raise NotImplementedError

    def digest(self) -> str:
        """sha256 of the simulated outputs (never of timings)."""
        raise NotImplementedError

    @contextlib.contextmanager
    def unit(self):
        """Time one unit of the body, with the machine's slowdown read
        just before and just after it."""
        with self.span("harness.calibration"):
            before = self.calibration.slowdown()
        started = cpu_seconds()
        yield
        cpu_s = cpu_seconds() - started
        with self.span("harness.calibration"):
            after = self.calibration.slowdown()
        self.units.append((cpu_s, 0.5 * (before + after)))

    def rng(self, stream: int) -> np.random.Generator:
        """Independent seeded stream (0: inputs, 1: verification samples)."""
        return np.random.default_rng([self.seed, stream])


# ---------------------------------------------------------------------------
# rtt_sweep / rtt_sweep_w2
# ---------------------------------------------------------------------------

class RttSweep(Workload):
    """S1 x 100 cities, 1000 GS pairs, 1 s snapshots on a moving timeline.

    The timeline is swept window by window (one ``compute_timelines`` call
    each, on a study whose epoch is advanced to the window's start), so
    every window is one timed unit of equal simulated length.
    """

    name = "rtt_sweep"
    workers: Optional[int] = None
    #: Snapshots per window: long enough that per-call set-up (engine,
    #: first full solve, worker start) stays a small share.
    window = 8

    def setup(self) -> None:
        from repro import Hypatia
        # Every city is a destination with the same number of sources, so
        # routing work is seed-independent and only path shapes vary.
        rng = self.rng(0)
        per_destination = 3 if self.tiny else 10
        pairs: List[Tuple[int, int]] = []
        for dst in range(self.cities):
            sources = rng.choice(self.cities - 1, size=per_destination,
                                 replace=False)
            sources = sources + (sources >= dst)
            pairs.extend((int(src), dst) for src in sources)
        self.pairs = sorted(pairs)
        windows = 2 if self.tiny else max(
            2, round(RTT_SNAPSHOTS_PER_S * self.seconds / self.window))
        self.studies = [
            Hypatia.from_shell_name(
                "S1", self.cities,
                epoch_offset_s=float(index * self.window))
            for index in range(windows)]
        # Warm-up: two snapshots, the smallest sweep that shards.
        self._sweep(self.studies[0], 2.0, self.workers)

    def _sweep(self, study, duration_s: float, workers: Optional[int]):
        return study.compute_timelines(
            self.pairs, duration_s=duration_s, step_s=1.0, workers=workers)

    def body(self) -> None:
        self.timelines = []
        for study in self.studies:
            with self.unit():
                self.timelines.append(
                    self._sweep(study, float(self.window), self.workers))
        self.sim_seconds = float(self.window * len(self.studies))
        self.operations = len(self.studies)
        self.counters["snapshots"] = self.sim_seconds

    def digest(self) -> str:
        digest = hashlib.sha256()
        for timelines in self.timelines:
            digest.update(timelines_digest(timelines, self.pairs))
        return digest.hexdigest()

    def verify(self) -> List[Check]:
        for timelines in self.timelines:
            if not all(len(timelines[pair].distances_m) == self.window
                       and len(timelines[pair].paths) == self.window
                       for pair in self.pairs):
                self.failed_operations += 1
        return self._oracle_checks()

    def _oracle_checks(self) -> List[Check]:
        """Sampled snapshots against networkx Dijkstra on the snapshot's
        own graph export — an implementation the product does not share."""
        import networkx as nx
        rng = self.rng(1)
        snapshots = self.window * len(self.studies)
        sampled = sorted(rng.choice(
            snapshots, size=min(snapshots, 2 if self.tiny else 5),
            replace=False).tolist())
        sampled_dsts = sorted(rng.choice(
            self.cities, size=5 if self.tiny else 20,
            replace=False).tolist())
        by_dst: Dict[int, List[int]] = {}
        for src, dst in self.pairs:
            by_dst.setdefault(dst, []).append(src)
        checks = []
        for index in sampled:
            window, step = divmod(index, self.window)
            snapshot = self.studies[window].snapshot(float(step))
            graph = snapshot.to_networkx()
            # Ground stations do not transit traffic: route over the
            # satellites plus the one destination station.
            graph.remove_nodes_from(
                [snapshot.gs_node_id(gid) for gid in range(self.cities)])
            worst = 0.0
            for dst in sampled_dsts:
                dst_node = snapshot.gs_node_id(dst)
                down = snapshot.gsl_edges[dst]
                graph.add_weighted_edges_from(
                    ((dst_node, int(sat), float(length)) for sat, length
                     in zip(down.satellite_ids, down.lengths_m)),
                    weight="distance_m")
                to_dst = {}
                if dst_node in graph:
                    to_dst = nx.single_source_dijkstra_path_length(
                        graph, dst_node, weight="distance_m")
                    graph.remove_node(dst_node)
                for src in by_dst[dst]:
                    up = snapshot.gsl_edges[src]
                    expected = min(
                        (float(length) + to_dst[int(sat)] for sat, length
                         in zip(up.satellite_ids, up.lengths_m)
                         if int(sat) in to_dst), default=float("inf"))
                    got = float(self.timelines[window][(src, dst)]
                                .distances_m[step])
                    if np.isinf(expected) or np.isinf(got):
                        error = 0.0 if expected == got else float("inf")
                    else:
                        error = abs(got - expected) / expected
                    worst = max(worst, error)
            checks.append(Check(
                f"networkx_oracle@window={window},t={step}", worst <= 1e-9,
                f"worst relative error {worst:.3g}"))
        return checks


class RttSweepWorkers(RttSweep):
    """The same inputs through the two-worker sweep path."""

    name = "rtt_sweep_w2"
    workers = 2

    def verify(self) -> List[Check]:
        checks = super().verify()
        # A serial walk of the first window must equal the sharded result
        # bit for bit; its time also gives the parallel efficiency.
        started = time.perf_counter()
        serial = self._sweep(self.studies[0], float(self.window), None)
        self.extras["serial_window_wall_s"] = time.perf_counter() - started
        sharded = self.timelines[0]
        same = all(
            np.array_equal(serial[pair].distances_m,
                           sharded[pair].distances_m)
            and serial[pair].paths == sharded[pair].paths
            for pair in self.pairs)
        checks.append(Check("serial_window_identical", same))
        return checks


def timelines_digest(timelines, pairs) -> bytes:
    digest = hashlib.sha256()
    for pair in pairs:
        timeline = timelines[pair]
        digest.update(np.ascontiguousarray(timeline.distances_m).tobytes())
        lengths = np.fromiter(
            (len(path) if path is not None else 0 for path in timeline.paths),
            dtype=np.int64, count=len(timeline.paths))
        digest.update(lengths.tobytes())
        digest.update(np.fromiter(
            itertools.chain.from_iterable(
                path for path in timeline.paths if path is not None),
            dtype=np.int64, count=int(lengths.sum())).tobytes())
    return digest.digest()


# ---------------------------------------------------------------------------
# fluid_gravity
# ---------------------------------------------------------------------------

class FluidGravity(Workload):
    """K1 x 100 cities, 1e5 static gravity flows, max-min per snapshot."""

    name = "fluid_gravity"
    capacity_bps = 10e6

    def setup(self) -> None:
        from repro import Hypatia, TrafficMatrix
        from repro.fluid.engine import FluidFlow
        self.hypatia = Hypatia.from_shell_name("K1", self.cities)
        matrix = TrafficMatrix.gravity(count=self.cities,
                                       total_offered_bps=1e9)
        demand = np.array(matrix.demand_bps, dtype=float)
        probability = (demand / demand.sum()).ravel()
        num_flows = 2_000 if self.tiny else 100_000
        draws = self.rng(0).choice(probability.size, size=num_flows,
                                   p=probability)
        sources, destinations = np.divmod(draws, self.cities)
        self.flows = [FluidFlow(int(src), int(dst))
                      for src, dst in zip(sources, destinations)]
        self.steps = 2 if self.tiny else max(
            2, round(FLUID_STEPS_PER_S * self.seconds))
        self._simulation().run(duration_s=1.0, step_s=1.0)
        self.simulation = self._simulation()

    def _simulation(self):
        return self.hypatia.build_fluid_simulation(
            self.flows, mode="maxmin", link_capacity_bps=self.capacity_bps)

    def body(self) -> None:
        # run() is start_run -> advance -> finish; stepping the same three
        # public calls makes every snapshot step one timed unit.
        simulation = self.simulation
        with self.unit():
            state = simulation.start_run(float(self.steps), step_s=1.0)
        for _ in range(self.steps):
            with self.unit():
                simulation.advance(state, max_steps=1)
        with self.unit():
            self.result = simulation.finish(state)
        self.sim_seconds = float(self.steps)
        self.operations = self.steps
        self.counters["fluid_steps"] = self.steps
        self.counters["flows"] = len(self.flows)

    def digest(self) -> str:
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(
            self.result.flow_rates_bps).tobytes())
        for loads in self.result.device_load_bps:
            digest.update(np.fromiter(loads.values(), dtype=float,
                                      count=len(loads)).tobytes())
        return digest.hexdigest()

    def verify(self) -> List[Check]:
        if len(self.result.times_s) != self.steps:
            self.failed_operations = self.operations
        sampled = sorted(self.rng(1).choice(
            self.steps, size=min(2, self.steps), replace=False).tolist())
        return [self._max_min_check(step) for step in sampled]

    def _max_min_check(self, step: int) -> Check:
        """Feasibility and the max-min property, recomputed from the
        result's own paths and rates: no device carries more than its
        capacity, and every routed flow crosses a saturated device on
        which no other flow is faster."""
        from repro.fluid.engine import path_devices
        rates = self.result.flow_rates_bps[step]
        paths = self.result.flow_paths[step]
        num_sats = self.result.num_satellites
        devices_of: Dict[tuple, List[Any]] = {}
        load: Dict[Any, float] = {}
        fastest: Dict[Any, float] = {}
        for path, rate in zip(paths, rates):
            if path is None:
                continue
            devices = devices_of.get(path)
            if devices is None:
                devices = devices_of[path] = path_devices(path, num_sats)
            for device in devices:
                load[device] = load.get(device, 0.0) + rate
                if rate > fastest.get(device, 0.0):
                    fastest[device] = rate
        capacity = self.capacity_bps
        over = max(load.values(), default=0.0) / capacity - 1.0
        reported = self.result.device_load_bps[step]
        mismatch = max((abs(load[key] - reported.get(key, 0.0))
                        for key in load), default=0.0) / capacity
        unbottlenecked = 0
        for path, rate in zip(paths, rates):
            if path is None:
                continue
            if not any(load[device] >= capacity * (1.0 - 1e-9)
                       and rate >= fastest[device] * (1.0 - 1e-9)
                       for device in devices_of[path]):
                unbottlenecked += 1
        ok = over <= 1e-9 and mismatch <= 1e-9 and unbottlenecked == 0
        return Check(f"max_min@step={step}", ok,
                     f"overload {max(over, 0.0):.3g}, load mismatch "
                     f"{mismatch:.3g}, flows without bottleneck "
                     f"{unbottlenecked}")


# ---------------------------------------------------------------------------
# packet_fig2
# ---------------------------------------------------------------------------

class PacketFig2(Workload):
    """The paper's Fig. 2 protocol: K1, permutation matrix, NewReno TCP.

    How many events a simulated second costs depends on which cities the
    permutation pairs up (about +-7 % between seeds), so the body is
    ``RUNS`` Fig. 2 runs in a row, each with its own seeded permutation
    and a fresh simulator: the seed then moves the result a third less.
    """

    name = "packet_fig2"
    RUNS = 3
    warmup_s = 0.05
    block_s = 0.3

    def setup(self) -> None:
        from repro import Hypatia, random_permutation_pairs
        from repro.simulation.simulator import LinkConfig
        from repro.transport.tcp import TcpFlow
        self.hypatia = Hypatia.from_shell_name("K1", self.cities)
        self.duration_s = 0.6 if self.tiny else round(
            PACKET_SIM_S_PER_S * self.seconds / self.RUNS, 2)
        self.simulators, self.flows = [], []
        for run in range(self.RUNS):
            simulator = self.hypatia.build_packet_simulator(
                LinkConfig(isl_rate_bps=1e6, gsl_rate_bps=1e6))
            pairs = random_permutation_pairs(
                self.cities, seed=self.seed * self.RUNS + run)
            self.flows.append([
                TcpFlow(src, dst, controller="newreno").install(simulator)
                for src, dst in pairs])
            simulator.run(self.warmup_s)  # the untimed warm-up step
            self.simulators.append(simulator)
        self.events_before = sum(sim.scheduler.events_processed
                                 for sim in self.simulators)

    def body(self) -> None:
        blocks = max(2, round(self.duration_s / self.block_s))
        for simulator in self.simulators:
            for block in range(1, blocks + 1):
                with self.unit():
                    simulator.run(
                        self.warmup_s + self.duration_s * block / blocks)
        self.sim_seconds = self.duration_s * self.RUNS
        self.operations = sum(len(flows) for flows in self.flows)
        self.counters["events"] = sum(
            sim.scheduler.events_processed
            for sim in self.simulators) - self.events_before

    def _summary(self, simulator) -> Dict[str, Any]:
        report = simulator.report(include_series=False)
        return report.as_dict(deterministic=True)["summary"]

    def digest(self) -> str:
        payload = [{"summary": self._summary(simulator),
                    "acked": [flow.acked_payload_bytes for flow in flows]}
                   for simulator, flows in zip(self.simulators, self.flows)]
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def verify(self) -> List[Check]:
        # K1 does not cover every one of the 100 cities: a flow between
        # unconnected stations must not ack anything (a failed operation),
        # and of the connected ones nearly all must have data acked by
        # the end of even a short run.
        routing = self.hypatia.routing
        first = self.hypatia.snapshot(0.0)
        last = self.hypatia.snapshot(self.warmup_s + self.duration_s)
        connected = progressed = 0
        for flow in itertools.chain.from_iterable(self.flows):
            reachable = [np.isfinite(routing.pair_distance_m(
                snapshot, flow.src_gid, flow.dst_gid))
                for snapshot in (first, last)]
            acked = flow.acked_payload_bytes > 0
            if all(reachable):
                connected += 1
                progressed += acked
            elif acked and not any(reachable):
                self.failed_operations += 1
        checks = [Check("flows_progress", progressed >= 0.9 * connected > 0,
                        f"{progressed}/{connected} connected flows acked")]
        for run, simulator in enumerate(self.simulators):
            summary = self._summary(simulator)
            sent = dropped = waiting = 0
            for device in simulator.iter_devices():
                sent += device.stats.packets_sent
                dropped += (device.stats.packets_dropped
                            + device.stats.packets_dropped_fault)
                waiting += device.queue_length + int(device.is_busy)
            offered = summary["packets_forwarded"]
            by_reason = sum(summary[key] for key in summary
                            if key.startswith("packets_dropped_"))
            # Every packet handed to a device was sent, dropped there, or
            # is still queued / being serialized; drops add up by reason;
            # nothing is delivered that was not sent.
            ok = (offered == sent + dropped + waiting
                  and dropped == (summary["packets_dropped_queue"]
                                  + summary["packets_dropped_fault"])
                  and summary["packets_dropped"] == by_reason
                  and 0 < summary["packets_delivered"] <= sent)
            checks.append(Check(
                f"packet_conservation@run={run}", ok,
                f"forwarded {offered} = sent {sent} + dropped {dropped} + "
                f"in device {waiting}; delivered "
                f"{summary['packets_delivered']}"))
        return checks


# ---------------------------------------------------------------------------
# service_session
# ---------------------------------------------------------------------------

#: Requests per ``attach_workload`` command: keeps each JSON line under
#: the server's 64 KiB ``readline`` limit.
ATTACH_CHUNK = 300


class ServiceSession(Workload):
    """A scripted client session against the live fluid service."""

    name = "service_session"

    def setup(self) -> None:
        from repro import FlowArrivalProcess, Hypatia, TrafficMatrix
        from repro.service import (LiveSimulationService, ServiceClient,
                                   ServiceServer)
        from repro.sweep import NetworkSpec
        self.epochs = 10 if self.tiny else max(
            10, round(SERVICE_EPOCHS_PER_S * self.seconds))
        horizon_s = float(self.epochs)
        hypatia = Hypatia.from_shell_name("K1", self.cities)
        scale = 0.04 if self.tiny else 1.0
        matrix = TrafficMatrix.gravity(count=self.cities,
                                       total_offered_bps=1.2e9 * scale)
        base = FlowArrivalProcess(matrix, mean_size_bytes=1e6,
                                  seed=self.seed).generate(horizon_s)
        # Attached live at 30 % of the horizon: 20 % more flows, arriving
        # over the following 30 %.
        self.attach_epoch = round(0.3 * self.epochs)
        self.extra = FlowArrivalProcess(
            matrix.normalized_to(0.8e9 * scale), mean_size_bytes=1e6,
            seed=self.seed + 1).generate(0.3 * horizon_s)
        # 29 satellite outages from 40 % to 70 % of the horizon.
        self.fault_epoch = round(0.4 * self.epochs)
        self.fault_end_s = float(round(0.7 * self.epochs))
        num_sats = hypatia.network.num_satellites
        self.outages = sorted(self.rng(0).choice(
            num_sats, size=29, replace=False).tolist())
        self.service = LiveSimulationService(
            NetworkSpec.from_network(hypatia.network).with_workload(base),
            engine="fluid", horizon_s=horizon_s, epoch_s=1.0,
            link_capacity_bps=1e9)
        self.counters["flows"] = len(base) + len(self.extra)
        self.counters["fault_events"] = len(self.outages)

        ready = threading.Event()
        bound: Dict[str, Any] = {}

        async def serve() -> None:
            server = ServiceServer(self.service)
            await server.start()
            bound["port"] = server.port
            ready.set()
            await server.wait_closed()

        def run_server() -> None:
            try:
                asyncio.run(serve())
            except BaseException as error:  # surfaces in the main thread
                bound["error"] = error
                ready.set()
                raise

        self.server_thread = threading.Thread(target=run_server, daemon=True)
        self.server_thread.start()
        if not ready.wait(timeout=30.0) or "error" in bound:
            raise RuntimeError(f"service did not start: {bound.get('error')}")
        self.client = ServiceClient("127.0.0.1", bound["port"],
                                    timeout_s=120.0)
        self.latency_s: Dict[str, List[float]] = {}
        self.checkpoint_paths: Dict[int, str] = {}
        self.report: Optional[Dict[str, Any]] = None
        self._alive = True
        self.command("status")
        self.command("advance", epochs=1)  # the untimed warm-up step

    def command(self, name: str, **fields: Any) -> Optional[Dict[str, Any]]:
        """One closed-loop command, one timed unit; a dead connection or
        a refused command fails it and every command after it."""
        from repro.service import ServiceClientError
        self.operations += 1
        if not self._alive:
            self.failed_operations += 1
            return None
        started = time.perf_counter()
        try:
            with self.unit(), self.span("service.client"):
                response = self.client.command(name, **fields)
        except (ServiceClientError, OSError) as error:
            self._alive = False
            self.failed_operations += 1
            self.extras.setdefault("errors", []).append(
                f"{name}: {type(error).__name__}: {error}")
            return None
        self.latency_s.setdefault(name, []).append(
            time.perf_counter() - started)
        return response

    def body(self) -> None:
        from repro import FaultEvent, WorkloadSchedule
        self.operations = self.failed_operations = 0
        self.latency_s.clear()
        self.units.clear()
        for epoch in range(1, self.epochs):
            if epoch == self.attach_epoch:
                requests = self.extra.requests
                for start in range(0, len(requests), ATTACH_CHUNK):
                    chunk = WorkloadSchedule(
                        requests[start:start + ATTACH_CHUNK])
                    self.command("attach_workload", workload=chunk.as_dict(),
                                 shift_to_now=True)
            if epoch == self.fault_epoch:
                self.command("inject_fault", events=[
                    FaultEvent.satellite_outage(
                        satellite, float(epoch), self.fault_end_s).as_dict()
                    for satellite in self.outages])
            self.command("advance", epochs=1)
            self.command("status")
            if epoch % 10 == 5:
                path = os.path.join(self.scratch_dir, f"epoch-{epoch}.ckpt")
                if self.command("checkpoint", path=path) is not None:
                    self.checkpoint_paths[epoch] = path
            if epoch % 10 == 0:
                self.command("metrics")
        response = self.command("report", deterministic=True)
        self.report = response["report"] if response else None
        self.command("stop")
        self.sim_seconds = float(self.epochs - 1)
        self.counters["fluid_steps"] = self.epochs - 1

    def digest(self) -> str:
        digest = hashlib.sha256(
            json.dumps(self.report, sort_keys=True).encode())
        digest.update(np.ascontiguousarray(
            self.service.fct_values()).tobytes())
        return digest.hexdigest()

    def verify(self) -> List[Check]:
        from repro.service import LiveSimulationService
        self.client.close()
        self.server_thread.join(timeout=30.0)
        checks = [Check("server_stopped", not self.server_thread.is_alive())]
        for name, samples in self.latency_s.items():
            self.extras[f"latency_s.{name}"] = samples
        self.extras["cmd_failed"] = self.failed_operations
        sizes = [os.path.getsize(path)
                 for path in self.checkpoint_paths.values()]
        self.extras["checkpoint_bytes"] = max(sizes, default=0)

        fct = (self.report or {}).get("fct", {})
        finite = fct.get("flows_finite", 0)
        completed = fct.get("flows_completed", 0)
        checks.append(Check(
            "flows_complete", finite > 0 and completed >= 0.95 * finite,
            f"{completed}/{finite} flows completed"))

        # Resume the last checkpoint taken before 75 % of the horizon and
        # run it out: it must end exactly where the live session did.
        eligible = [epoch for epoch in self.checkpoint_paths
                    if epoch <= 0.75 * self.epochs]
        if not eligible or self.report is None:
            checks.append(Check("resume_identical", False,
                                "no checkpoint or no live report"))
            return checks
        epoch = max(eligible)
        started = time.perf_counter()
        resumed = LiveSimulationService.resume(self.checkpoint_paths[epoch])
        self.extras["resume_s"] = time.perf_counter() - started
        resumed.run_to_horizon()
        report = json.loads(json.dumps(
            resumed.report().as_dict(deterministic=True)))
        same = (report == self.report and np.array_equal(
            resumed.fct_values(), self.service.fct_values()))
        checks.append(Check("resume_identical", same,
                            f"resumed at epoch {epoch} of {self.epochs}"))
        return checks


# ---------------------------------------------------------------------------
# fault_whatif
# ---------------------------------------------------------------------------

class FaultWhatIf(Workload):
    """S1 at a frozen epoch under a rolling window of failed ISLs."""

    name = "fault_whatif"

    def setup(self) -> None:
        from repro import Hypatia, random_permutation_pairs
        from repro.topology.dynamic_state import make_routing_engine
        self.network = Hypatia.from_shell_name("S1", self.cities).network
        base = self.network.snapshot(0.0)
        window = 5 if self.tiny else 50
        self.steps = 20 if self.tiny else max(
            20, round(WHATIF_STEPS_PER_S * self.seconds))
        # Step i fails ISLs order[i : i + window]: from one step to the
        # next the oldest failure heals and one new ISL fails.  The masked
        # snapshots are built here so the timed loop only routes.
        num_isls = len(base.isl_pairs)
        order = self.rng(0).permutation(num_isls)[:self.steps + window + 1]
        self.snapshots = []
        for step in range(self.steps + 1):
            keep = np.ones(num_isls, dtype=bool)
            keep[order[step:step + window]] = False
            self.snapshots.append(dataclasses.replace(
                base, isl_pairs=base.isl_pairs[keep],
                isl_lengths_m=base.isl_lengths_m[keep]))
        self.pairs = random_permutation_pairs(self.cities, seed=self.seed)
        self.destinations = list(range(self.cities))
        self.engine = make_routing_engine(self.network)
        self.sampled = set(self.rng(1).choice(
            self.steps, size=min(10, self.steps), replace=False).tolist())
        self.kept: Dict[int, Any] = {}
        self.paths: List[List[Optional[List[int]]]] = []
        # Warm-up: the full solve every later step repairs.
        self.engine.paths_many(self.snapshots[0], self.pairs)

    def body(self) -> None:
        engine = self.engine
        block = 5 if self.tiny else 50
        for first in range(0, self.steps, block):
            steps = range(first, min(first + block, self.steps))
            with self.unit():
                for step in steps:
                    snapshot = self.snapshots[step + 1]
                    self.paths.append(engine.paths_many(snapshot, self.pairs))
                    if step in self.sampled:
                        # Same snapshot and destinations: the trees just
                        # used, not a second solve.
                        self.kept[step] = engine.route_to_many(
                            snapshot, self.destinations)
        # No simulated clock runs at a frozen epoch; by convention one
        # what-if step counts as one simulated second (one fault event per
        # second), which makes the factor "what-if steps per CPU-second".
        self.sim_seconds = float(self.steps)
        self.operations = self.steps
        self.counters["whatif_steps"] = self.steps

    def digest(self) -> str:
        digest = hashlib.sha256()
        for paths in self.paths:
            for path in paths:
                digest.update(np.asarray(path if path is not None else [-1],
                                         dtype=np.int64).tobytes())
        return digest.hexdigest()

    def verify(self) -> List[Check]:
        from repro.routing.engine import RoutingEngine
        if len(self.paths) != self.steps:
            self.failed_operations = self.operations
        checks = []
        for step in sorted(self.kept):
            fresh = RoutingEngine(self.network).route_to_many(
                self.snapshots[step + 1], self.destinations)
            kept = self.kept[step]
            checks.append(Check(
                f"fresh_solve@step={step}",
                np.array_equal(fresh.distance_m, kept.distance_m)
                and np.array_equal(fresh.next_hop, kept.next_hop)))
        return checks


WORKLOADS = {cls.name: cls for cls in (
    RttSweep, RttSweepWorkers, FluidGravity, PacketFig2, ServiceSession,
    FaultWhatIf)}
