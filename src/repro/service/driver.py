"""The live simulation core: build, advance, mutate, checkpoint.

A :class:`LiveSimulationService` wraps one engine — the packet
simulator or one of the fluid engines (max-min, AIMD) — built from a
picklable :class:`~repro.sweep.spec.NetworkSpec`, and exposes the
operations a long-lived service needs:

* **epoch advancement** — :meth:`advance_epoch` / :meth:`advance_to`
  move simulated time forward in bounded increments, so a server can
  pace them against the wall clock and interleave control commands;
* **live mutation** — :meth:`attach_workload` /
  :meth:`detach_workload` / :meth:`attach_arrivals` /
  :meth:`inject_fault` change traffic and faults *between* epochs while
  the constellation flies;
* **checkpoint/restore** — :meth:`checkpoint` captures the entire
  object graph (DES event queue, device/transport state, fluid run
  state, RNG stream positions) behind a versioned header;
  :meth:`from_checkpoint` / :meth:`resume` bring it back
  bit-identically in any process.

Determinism contract (proven by ``tests/test_service.py``): a service
that is checkpointed at an epoch boundary, restored, and advanced to
the horizon produces stats, reports, and per-flow FCTs bit-identical
to one that never stopped.  Mutations keep a weaker but precise
promise: attaching traffic or injecting faults that only act in the
*future* yields the same traffic outcomes — packet events, deliveries,
drops, FCTs, ``traffic.*`` metrics — as having built the service with
them present from t=0 (only the demand-driven routing *work* counters
may differ, since mid-run installs compute their destination trees at
install time instead of inside a scheduled refresh batch).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..cc.factory import ControllerFlowFactory
from ..faults.injector import LinkFaultInjector
from ..faults.schedule import FaultEvent, FaultSchedule
from ..fluid.aimd import AimdFluidSimulation
from ..fluid.engine import FluidRunState, FluidSimulation
from ..obs.metrics import MetricsRegistry
from ..obs.report import RunReport
from ..simulation.simulator import LinkConfig, PacketSimulator
from ..sweep.spec import NetworkSpec
from ..traffic.arrivals import (FlowArrivalProcess, FlowArrivalStream,
                                FlowRequest, WorkloadSchedule)
from ..traffic.spawner import WorkloadSpawner, packet_fct_section
from ..transport.base import ensure_flow_ids_above
from .checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                         save_checkpoint, spec_fingerprint)

__all__ = ["LiveSimulationService", "ServiceError"]

#: The fluid engines by ``engine`` name; they share one resumable loop
#: and run state, so everything past construction is common.
_FLUID_ENGINES = {"fluid": FluidSimulation, "aimd": AimdFluidSimulation}


class ServiceError(RuntimeError):
    """A service command could not be applied to the live simulator."""


class LiveSimulationService:
    """One live, checkpointable simulation (see module docstring).

    Args:
        spec: The network recipe; must be spec-expressible (registered
            ISL builder) so checkpoints can identify the network.
        engine: ``"packet"``, ``"fluid"`` (the max-min engine) or
            ``"aimd"``.
        horizon_s: Simulated end of the run.  Required — both engines
            pre-commit their snapshot/epoch schedule to it.
        epoch_s: Epoch granularity of :meth:`advance_epoch`; for the
            fluid engine also the snapshot step.
        link_capacity_bps: Fluid device capacity.
        link_config: Packet device rates/queues (paper defaults when
            omitted).
        forwarding_interval_s: Packet forwarding refresh period.
        controller: Congestion-controller registry name (see
            :mod:`repro.cc`) every spawned flow runs — including flows
            of workloads attached later.  Packet engine only.  Default:
            the spawner default (NewReno).  Controller state — a
            learned controller's brain included — lives inside the
            spawners, so it rides in checkpoints and survives restore.
        controller_kwargs: Constructor kwargs for each flow's
            controller.
        meta: Free-form JSON-expressible provenance stamped into every
            checkpoint header.
    """

    #: ``(spec, its fingerprint)`` as of the last checkpoint (see
    #: :meth:`_spec_hash`).  Never pickled, so a restored service —
    #: from this build's files or older ones — starts from this default.
    _fingerprinted: Optional[Tuple[NetworkSpec, str]] = None

    def __init__(self, spec: NetworkSpec, engine: str = "packet",
                 horizon_s: float = 60.0,
                 epoch_s: float = 1.0,
                 link_capacity_bps: float = 10_000_000.0,
                 link_config: Optional[LinkConfig] = None,
                 forwarding_interval_s: float = 0.1,
                 controller: Optional[str] = None,
                 controller_kwargs: Optional[Dict[str, Any]] = None,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        if engine != "packet" and engine not in _FLUID_ENGINES:
            raise ServiceError(
                f"unknown engine {engine!r}; the service supports "
                f"'packet', 'fluid' (max-min) and 'aimd'")
        if controller is not None and engine != "packet":
            raise ServiceError(
                "congestion controllers steer packet-engine flows; the "
                "fluid engines have no transport layer to plug into")
        if horizon_s <= 0.0:
            raise ServiceError(f"horizon must be positive, got {horizon_s}")
        if epoch_s <= 0.0:
            raise ServiceError(f"epoch must be positive, got {epoch_s}")
        self.spec = spec
        self.engine = engine
        self.horizon_s = float(horizon_s)
        self.epoch_s = float(epoch_s)
        self.meta = dict(meta or {})
        self.clock_s = 0.0
        self.metrics = MetricsRegistry()
        self.network = spec.build()
        if spec.workload is not None:
            self._check_gids(spec.workload.requests)
        #: attach handle -> workload bookkeeping (engine-specific).
        self._attached: Dict[int, Dict[str, Any]] = {}
        self._next_handle = 1
        self._arrival_streams: List[FlowArrivalStream] = []
        #: Shared controller-aware factory (None: spawner default).
        #: One instance across all spawners, so cross-flow controller
        #: state (a learned brain) is scenario-wide and checkpointed.
        self._flow_factory: Optional[ControllerFlowFactory] = None
        if controller is not None:
            self._flow_factory = ControllerFlowFactory(
                controller, controller_kwargs)

        if engine == "packet":
            self.sim: Optional[PacketSimulator] = PacketSimulator(
                self.network, link_config=link_config,
                forwarding_interval_s=forwarding_interval_s)
            self.fluid: Optional[FluidSimulation] = None
            self.state: Optional[FluidRunState] = None
            self._spawners: List[WorkloadSpawner] = []
            if spec.workload is not None and not spec.workload.is_empty:
                spawner = WorkloadSpawner(spec.workload,
                                          metrics=self.metrics,
                                          flow_factory=self._flow_factory)
                spawner.install(self.sim)
                self._spawners.append(spawner)
        else:
            if spec.workload is None or spec.workload.is_empty:
                raise ServiceError(
                    "the fluid service needs traffic: put a workload "
                    "on the spec (NetworkSpec.with_workload)")
            self.sim = None
            self._spawners = []
            self.fluid = _FLUID_ENGINES[engine](
                self.network, spec.workload.as_fluid_flows(),
                link_capacity_bps=link_capacity_bps,
                metrics=self.metrics)
            self.state = self.fluid.start_run(self.horizon_s,
                                              step_s=self.epoch_s)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def time_s(self) -> float:
        """Simulated time the service has advanced to."""
        return self.clock_s

    @property
    def done(self) -> bool:
        """Whether the service reached its horizon."""
        return self.clock_s >= self.horizon_s

    def advance_to(self, target_s: float) -> Dict[str, Any]:
        """Advance simulated time to ``min(target_s, horizon_s)``.

        The advance walks epoch boundaries one at a time, draining
        pending arrival streams into each epoch before it simulates —
        so one big ``advance_to(horizon)`` is bit-identical to the
        paced server's epoch-by-epoch advancement (arrival flows are
        installed at the same simulated instants either way).  Returns
        the post-advance :meth:`status`.
        """
        target_s = min(float(target_s), self.horizon_s)
        if target_s < self.clock_s:
            raise ServiceError(
                f"cannot advance backwards (t={self.clock_s} -> "
                f"{target_s}); restore an earlier checkpoint instead")
        while True:
            completed = int(np.floor(self.clock_s / self.epoch_s + 1e-9))
            boundary = min(target_s, (completed + 1) * self.epoch_s)
            self._spawn_arrivals(boundary)
            if self.engine == "packet":
                assert self.sim is not None
                self.sim.run(boundary)
            else:
                assert self.fluid is not None and self.state is not None
                state = self.state
                while (not state.done
                       and float(state.times[state.next_index]) < boundary):
                    self.fluid.advance(state, max_steps=1)
            self.clock_s = boundary
            if boundary >= target_s:
                break
        return self.status()

    def advance_epoch(self, epochs: int = 1) -> Dict[str, Any]:
        """Advance ``epochs`` whole epochs (clamped to the horizon)."""
        if epochs < 1:
            raise ServiceError(f"epochs must be >= 1, got {epochs}")
        # Epoch boundaries come from advance_to's integer floor grid, not
        # repeated float addition: long-running services never drift and
        # a mid-epoch clock first stops at the next boundary.
        completed = int(np.floor(self.clock_s / self.epoch_s + 1e-9))
        return self.advance_to((completed + epochs) * self.epoch_s)

    def run_to_horizon(self) -> Dict[str, Any]:
        """Advance everything that remains."""
        return self.advance_to(self.horizon_s)

    def _spawn_arrivals(self, until_s: float) -> None:
        for stream in self._arrival_streams:
            if stream.taken_until_s >= until_s:
                continue
            requests = stream.take_until(until_s)
            if requests:
                self._attach_requests(requests)

    # ------------------------------------------------------------------
    # Live mutation
    # ------------------------------------------------------------------

    def attach_workload(self, workload: WorkloadSchedule,
                        shift_to_now: bool = False) -> int:
        """Add a finite-flow workload to the running simulation.

        Args:
            workload: The requests; every start must lie at or after
                the current simulated time (the past already happened).
            shift_to_now: Shift the whole schedule by the current time
                first — how a t=0-relative workload is attached live.

        Returns:
            An attach handle for :meth:`detach_workload`.
        """
        if shift_to_now:
            workload = workload.shifted(self.clock_s)
        if workload.is_empty:
            raise ServiceError("cannot attach an empty workload")
        first = min(r.t_start_s for r in workload.requests)
        if first < self.clock_s:
            raise ServiceError(
                f"workload starts at t={first} but the service is at "
                f"t={self.clock_s}; shift_to_now=True attaches it "
                f"relative to now")
        self._check_gids(workload.requests)
        handle = self._attach_requests(list(workload.requests))
        # The spec keeps describing the *whole* offered traffic, so a
        # from-scratch rebuild of the current spec reproduces this run.
        merged = (workload if self.spec.workload is None
                  else self.spec.workload.merged(workload))
        self.spec = self.spec.with_workload(merged)
        return handle

    def attach_arrivals(self, process: FlowArrivalProcess) -> int:
        """Attach an open-ended Poisson arrival process.

        Arrivals are drawn epoch by epoch through a
        :class:`~repro.traffic.arrivals.FlowArrivalStream`, whose RNG
        stream positions ride inside every checkpoint — restore
        continues the draw sequence exactly where it stopped.
        """
        stations = self.network.num_ground_stations
        if process.matrix.num_stations > stations:
            raise ServiceError(
                f"arrival matrix spans {process.matrix.num_stations} "
                f"stations; the network has {stations}")
        stream = process.stream()
        discarded = stream.take_until(self.clock_s)
        del discarded  # arrivals strictly before "now" never existed
        self._arrival_streams.append(stream)
        handle = self._next_handle
        self._next_handle += 1
        self._attached[handle] = {"kind": "arrivals", "stream": stream}
        return handle

    def _check_gids(self, requests: Sequence[FlowRequest]) -> None:
        """Refuse requests naming a station the network does not have —
        before anything is installed: an engine would only trip over the
        gid mid-advance, with the request already part of the run."""
        stations = self.network.num_ground_stations
        for request in requests:
            if max(request.src_gid, request.dst_gid) >= stations:
                raise ServiceError(
                    f"flow {request.src_gid} -> {request.dst_gid} names a "
                    f"ground station outside [0, {stations})")

    def _attach_requests(self, requests: Sequence[FlowRequest]) -> int:
        handle = self._next_handle
        self._next_handle += 1
        if self.engine == "packet":
            assert self.sim is not None
            spawner = WorkloadSpawner(
                WorkloadSchedule(requests), metrics=self.metrics,
                flow_factory=self._flow_factory)
            spawner.install(self.sim)
            self._spawners.append(spawner)
            self._attached[handle] = {"kind": "workload",
                                      "spawner": spawner}
        else:
            assert self.fluid is not None and self.state is not None
            start = self.fluid.extend_flows(
                self.state, WorkloadSchedule(requests).as_fluid_flows())
            self._attached[handle] = {"kind": "workload",
                                      "flows": (start, len(requests))}
        return handle

    def detach_workload(self, handle: int) -> Dict[str, Any]:
        """Stop a previously attached workload offering new traffic.

        Flow transfers already in progress drain normally (like
        in-flight packets on a closing connection); what detaching
        cancels is the *future* — unstarted flows, and further arrivals
        of an arrival-process attachment.
        """
        info = self._attached.pop(handle, None)
        if info is None:
            raise ServiceError(f"unknown workload handle {handle}")
        now = self.clock_s
        if info["kind"] == "arrivals":
            self._arrival_streams.remove(info["stream"])
            return {"handle": handle, "cancelled": "arrival stream"}
        if self.engine == "packet":
            spawner = info["spawner"]
            cancelled = 0
            for app in spawner.flows:
                if getattr(app, "completed_at_s", None) is None:
                    app.stop_s = min(getattr(app, "stop_s", np.inf), now)
                    cancelled += 1
            return {"handle": handle, "cancelled": cancelled}
        assert self.state is not None
        start, count = info["flows"]
        state = self.state
        indices = np.arange(start, start + count)
        future = indices[state.starts[indices] > now]
        state.residual_bits[future] = 0.0
        return {"handle": handle, "cancelled": int(len(future))}

    def inject_fault(self, events: Union[FaultEvent,
                                         Sequence[FaultEvent]]) -> int:
        """Inject fault events into the flying constellation.

        Every event window must open at or after the current simulated
        time; with that restriction the injection is bit-identical to a
        run where the events were scheduled from t=0 (routing sees them
        through the fault view at snapshot time, and live packet-loss
        injectors extend without touching their RNG stream positions).

        Returns the number of events injected.
        """
        if isinstance(events, FaultEvent):
            events = [events]
        events = list(events)
        if not events:
            raise ServiceError("no fault events given")
        now = self.clock_s
        for event in events:
            if event.start_s < now:
                raise ServiceError(
                    f"fault event starting at t={event.start_s} is in "
                    f"the past (service is at t={now}); only future "
                    f"windows inject deterministically")
        existing = self.network.faults
        seed = existing.seed if existing is not None else 0
        addition = FaultSchedule(events, seed=seed)
        merged = (addition if existing is None
                  else existing.merged(addition))
        self.network.set_faults(merged)
        self.spec = replace(self.spec, faults=merged)
        if self.engine == "packet":
            self._extend_packet_injectors(events, merged, now)
        return len(events)

    def _extend_packet_injectors(self, events: Sequence[FaultEvent],
                                 merged: FaultSchedule,
                                 now: float) -> None:
        """Wire new stochastic loss/corruption events into live devices."""
        assert self.sim is not None
        sim = self.sim
        sim._faults = merged if len(merged) else None
        for event in events:
            if not event.is_stochastic:
                continue
            devices = []
            if event.isl is not None:
                a, b = event.isl
                for key in ((a, b), (b, a)):
                    try:
                        devices.append(sim.isl_device(*key))
                    except KeyError:
                        pass
            elif event.gid is not None:
                devices.append(
                    sim.gsl_device(self.network.num_satellites + event.gid))
            for device in devices:
                injector = device._fault_injector
                if injector is None:
                    injector = LinkFaultInjector(device.name, [event],
                                                 seed=merged.seed)
                    device._fault_injector = injector
                else:
                    injector.extend([event], now)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """A compact JSON-expressible view of the service state."""
        status: Dict[str, Any] = {
            "engine": self.engine,
            "time_s": self.clock_s,
            "horizon_s": self.horizon_s,
            "epoch_s": self.epoch_s,
            "done": self.done,
            "attached": len(self._attached),
            "arrival_streams": len(self._arrival_streams),
        }
        if self.engine == "packet":
            assert self.sim is not None
            status["events_processed"] = self.sim.scheduler.events_processed
            status["flows"] = sum(len(s.flows) for s in self._spawners)
            status["flows_completed"] = sum(
                s.completed for s in self._spawners)
        else:
            assert self.state is not None
            status["flows"] = len(self.state.starts)
            status["snapshots_done"] = self.state.next_index
            status["snapshots_total"] = len(self.state.times)
            status["allocations_solved"] = self.state.solves
        return status

    def metrics_dict(self, include_series: bool = True) -> Dict[str, Any]:
        """The live metrics registry contents (``repro.obs`` form)."""
        return self.metrics.as_dict(include_series=include_series)

    def report(self) -> RunReport:
        """The unified run report of the simulation so far.

        The packet engine reports at any epoch boundary; the fluid
        engines report once the horizon is reached (a fluid
        :class:`~repro.fluid.engine.FluidResult` is only defined over
        the full committed snapshot schedule).
        """
        if self.engine == "packet":
            assert self.sim is not None
            report = self.sim.report(self.clock_s, registry=self.metrics)
            if self._spawners:
                report.extras["fct"] = packet_fct_section(
                    self._spawners, self.metrics)
            return report
        assert self.fluid is not None and self.state is not None
        if not self.state.done:
            raise ServiceError(
                f"fluid report needs the horizon: at t={self.clock_s} "
                f"of {self.horizon_s}; advance first (or checkpoint and "
                f"resume later)")
        result = self.fluid.finish(self.state)
        return result.report(registry=self.metrics)

    def fct_values(self) -> np.ndarray:
        """Per-flow completion times recorded so far (seconds)."""
        if self.engine == "packet":
            values: List[float] = []
            for spawner in self._spawners:
                values.extend(spawner.fcts_s)
            return np.asarray(values)
        assert self.state is not None
        return self.state.fct_s[np.isfinite(self.state.fct_s)]

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------

    def checkpoint(self, meta: Optional[Dict[str, Any]] = None
                   ) -> Checkpoint:
        """Capture the whole live state as a versioned checkpoint.

        The payload is this service object itself — one pickle
        memoizes the shared references (scheduler queue entries, device
        graphs, RNG streams, run state), so restore reconstructs the
        identical object graph.
        """
        merged_meta = dict(self.meta)
        if meta:
            merged_meta.update(meta)
        merged_meta.setdefault("horizon_s", self.horizon_s)
        merged_meta.setdefault("epoch_s", self.epoch_s)
        return Checkpoint(spec=self.spec, engine=self.engine,
                          time_s=self.clock_s,
                          payload={"service": self}, meta=merged_meta,
                          spec_hash=self._spec_hash())

    def _spec_hash(self) -> str:
        """:func:`spec_fingerprint` of the current spec, remembered by
        spec *identity*: specs are frozen and only ever replaced
        (``attach_workload`` / ``inject_fault``), so periodic checkpoints
        of an unchanged spec canonicalize its ~10^4 requests once."""
        if self._fingerprinted is None \
                or self._fingerprinted[0] is not self.spec:
            self._fingerprinted = (self.spec, spec_fingerprint(self.spec))
        return self._fingerprinted[1]

    def __getstate__(self) -> Dict[str, Any]:
        # The memo stays out of checkpoints: a restored service hashes
        # the spec it actually holds, like ``load_checkpoint`` does.
        state = dict(vars(self))
        state.pop("_fingerprinted", None)
        return state

    def save(self, path: str,
             meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Checkpoint to a file; returns the stamped header."""
        return save_checkpoint(path, self.checkpoint(meta=meta))

    @classmethod
    def from_checkpoint(cls, checkpoint: Checkpoint
                        ) -> "LiveSimulationService":
        """Rehydrate the live service a checkpoint captured."""
        payload = checkpoint.payload
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"checkpoint payload is a {type(payload).__name__!r}, "
                f"not the dict LiveSimulationService.save writes")
        service = payload.get("service")
        if not isinstance(service, cls):
            raise CheckpointError(
                f"checkpoint payload holds "
                f"{type(service).__name__!r}, not a live service "
                f"(was it written by LiveSimulationService.save?)")
        if service.engine == "packet" and service.sim is not None:
            # The flow-id allocator restarted with this process; push it
            # past every restored flow so post-restore attachments are
            # collision-free.
            restored = [flow for _, flow in service.sim._handlers]
            ensure_flow_ids_above(max(restored, default=0))
        return service

    @classmethod
    def resume(cls, path: str,
               expected_spec: Optional[NetworkSpec] = None
               ) -> "LiveSimulationService":
        """Load a checkpoint file and rehydrate its service."""
        return cls.from_checkpoint(
            load_checkpoint(path, expected_spec=expected_spec))
