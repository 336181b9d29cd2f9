"""The live simulation core: build, advance, mutate, checkpoint.

A :class:`LiveSimulationService` wraps one engine — the packet
simulator or the max-min fluid engine — built from a
:class:`~repro.sweep.spec.NetworkSpec`, and exposes the operations a
long-lived service needs:

* **epoch advancement** — :meth:`advance_epoch` / :meth:`advance_to`
  move simulated time forward in bounded increments, so a server can
  pace them against the wall clock and interleave control commands;
* **live mutation** — :meth:`attach_workload` /
  :meth:`detach_workload` / :meth:`inject_fault` change traffic and
  faults *between* epochs while the constellation flies;
* **checkpoint/restore** — :meth:`save` writes the initial spec, the
  mutation :attr:`log` and a :meth:`state_digest`; :meth:`resume`
  rebuilds the service and replays the log through these same methods
  (:mod:`repro.service.checkpoint`).

Determinism contract (proven by ``tests/test_service.py``): a service
that is checkpointed, restored, and advanced to the horizon produces
stats, reports, and per-flow FCTs bit-identical to one that never
stopped.  Mutations that only act in the *future* yield the same
traffic outcomes — packet events, deliveries, drops, FCTs,
``traffic.*`` metrics — as building the service with them from t=0
(only the demand-driven routing *work* counters may differ, since
mid-run installs compute their destination trees at install time).
"""

from __future__ import annotations

import hashlib
import math
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..faults.injector import LinkFaultInjector
from ..faults.schedule import FaultEvent, FaultSchedule
from ..fluid.engine import FluidRunState, FluidSimulation
from ..obs import spans
from ..obs.metrics import MetricsRegistry
from ..obs.report import RunReport
from ..simulation.simulator import PacketSimulator
from ..sweep.spec import NetworkSpec
from ..traffic.arrivals import FlowRequest, WorkloadSchedule
from ..traffic.spawner import WorkloadSpawner, packet_fct_section
from .checkpoint import (ENGINES, json_text, json_text_with,
                         load_checkpoint, save_checkpoint)

__all__ = ["LiveSimulationService", "ServiceError"]


class ServiceError(RuntimeError):
    """A service command could not be applied to the live simulator."""


class LiveSimulationService:
    """One live, checkpointable simulation (see module docstring).

    Args:
        spec: The network recipe; its fingerprint identifies the
            network in every checkpoint.
        engine: ``"packet"`` or ``"fluid"`` (the max-min engine).
        horizon_s: Simulated end of the run, finite and positive.  Both
            engines pre-commit their snapshot/epoch schedule to it.
        epoch_s: Epoch granularity of :meth:`advance_epoch`, finite and
            positive; for the fluid engine also the snapshot step.
        link_capacity_bps: Fluid device capacity, finite and positive.
        meta: Free-form JSON-expressible provenance stamped into every
            checkpoint header.

    Attributes:
        initial_spec: The spec the service was built from.
        log: Every mutation in order: ``[clock_s, method, JSON arg]``.
            With ``initial_spec`` it is the service's record: what a
            checkpoint holds and a restore replays.
    """

    def __init__(self, spec: NetworkSpec, engine: str = "packet",
                 horizon_s: float = 60.0,
                 epoch_s: float = 1.0,
                 link_capacity_bps: float = 10_000_000.0,
                 meta: Optional[Dict[str, Any]] = None) -> None:
        if engine not in ENGINES:
            raise ServiceError(f"unknown engine {engine!r}; the service "
                               f"supports {', '.join(ENGINES)}")
        if not 0.0 < horizon_s < math.inf:
            raise ServiceError(
                f"horizon must be finite and positive, got {horizon_s}")
        if not 0.0 < epoch_s < math.inf:
            raise ServiceError(
                f"epoch must be finite and positive, got {epoch_s}")
        if not 0.0 < link_capacity_bps < math.inf:
            raise ServiceError(f"link capacity must be finite and "
                               f"positive, got {link_capacity_bps}")
        self.initial_spec = spec
        self.log: List[list] = []
        self.engine = engine
        self.horizon_s = float(horizon_s)
        self.epoch_s = float(epoch_s)
        self.link_capacity_bps = float(link_capacity_bps)
        self.meta = dict(meta or {})
        self.clock_s = 0.0
        self.metrics = MetricsRegistry()
        self.network = spec.build()
        if spec.workload is not None:
            self._check_gids(spec.workload.requests)
        #: attach handle -> its spawner (packet) or ``(first flow index,
        #: flow count)`` (fluid).
        self._attached: Dict[int, Any] = {}
        self._next_handle = 1

        if engine == "packet":
            self.sim: Optional[PacketSimulator] = PacketSimulator(
                self.network)
            self.fluid: Optional[FluidSimulation] = None
            self.state: Optional[FluidRunState] = None
            self._spawners: List[WorkloadSpawner] = []
            if spec.workload is not None and not spec.workload.is_empty:
                spawner = WorkloadSpawner(spec.workload,
                                          metrics=self.metrics)
                spawner.install(self.sim)
                self._spawners.append(spawner)
        else:
            if spec.workload is None or spec.workload.is_empty:
                raise ServiceError(
                    "the fluid service needs traffic: put a workload "
                    "on the spec (NetworkSpec.with_workload)")
            self.sim = None
            self._spawners = []
            self.fluid = FluidSimulation(
                self.network, spec.workload.as_fluid_flows(),
                link_capacity_bps=self.link_capacity_bps,
                metrics=self.metrics)
            self.state = self.fluid.start_run(self.horizon_s,
                                              step_s=self.epoch_s)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether the service reached its horizon."""
        return self.clock_s >= self.horizon_s

    @spans.timed("service.advance")
    def advance_to(self, target_s: float) -> Dict[str, Any]:
        """Advance simulated time to ``min(target_s, horizon_s)``.

        Both engines partition time cleanly, so one big
        ``advance_to(horizon)`` is bit-identical to the paced server's
        epoch-by-epoch advancement, and an advance to the current clock
        leaves the engine alone (so a replay's one advance per logged
        mutation is the live run).  Returns the post-advance
        :meth:`status`.

        Raises:
            ServiceError: ``target_s`` is not finite, or is behind the
                clock.
        """
        if not math.isfinite(target_s):
            raise ServiceError(
                f"cannot advance to a time that is not finite: {target_s}")
        target_s = min(float(target_s), self.horizon_s)
        if target_s < self.clock_s:
            raise ServiceError(
                f"cannot advance backwards (t={self.clock_s} -> "
                f"{target_s}); restore an earlier checkpoint instead")
        if self.engine == "packet":
            assert self.sim is not None
            if target_s > self.clock_s:
                self.sim.run(target_s)
        else:
            assert self.fluid is not None and self.state is not None
            state = self.state
            while (not state.done
                   and float(state.times[state.next_index]) < target_s):
                self.fluid.advance(state, max_steps=1)
        self.clock_s = target_s
        return self.status()

    def advance_epoch(self, epochs: int = 1) -> Dict[str, Any]:
        """Advance ``epochs`` whole epochs (clamped to the horizon)."""
        if epochs < 1:
            raise ServiceError(f"epochs must be >= 1, got {epochs}")
        # Epoch boundaries come from an integer floor grid, not repeated
        # float addition: long-running services never drift and a
        # mid-epoch clock first stops at the next boundary.
        completed = int(np.floor(self.clock_s / self.epoch_s + 1e-9))
        return self.advance_to((completed + epochs) * self.epoch_s)

    def run_to_horizon(self) -> Dict[str, Any]:
        """Advance everything that remains."""
        return self.advance_to(self.horizon_s)

    # ------------------------------------------------------------------
    # Live mutation
    # ------------------------------------------------------------------

    @spans.timed("service.attach")
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
        handle = self._next_handle
        self._next_handle += 1
        if self.engine == "packet":
            assert self.sim is not None
            spawner = WorkloadSpawner(workload, metrics=self.metrics)
            spawner.install(self.sim)
            self._spawners.append(spawner)
            self._attached[handle] = spawner
        else:
            assert self.fluid is not None and self.state is not None
            start = self.fluid.extend_flows(self.state,
                                            workload.as_fluid_flows())
            self._attached[handle] = (start, workload.num_flows)
        self.log.append([self.clock_s, "attach_workload", workload.as_dict()])
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

    def detach_workload(self, handle: int) -> Dict[str, Any]:
        """Stop a previously attached workload offering new traffic.

        Flow transfers already in progress drain normally (like
        in-flight packets on a closing connection); what detaching
        cancels is the *future* — unstarted flows.
        """
        attached = self._attached.pop(handle, None)
        if attached is None:
            raise ServiceError(f"unknown workload handle {handle}")
        now = self.clock_s
        self.log.append([now, "detach_workload", handle])
        if self.engine == "packet":
            future = [flow for flow in attached.flows if flow.start_s > now]
            for flow in future:
                flow.stop_s = now
            return {"handle": handle, "cancelled": len(future)}
        assert self.state is not None
        start, count = attached
        state = self.state
        indices = np.arange(start, start + count)
        future = indices[state.starts[indices] > now]
        state.residual_bits[future] = 0.0
        return {"handle": handle, "cancelled": int(len(future))}

    @spans.timed("service.inject")
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
        if self.engine == "packet":
            self._extend_packet_injectors(events, merged, now)
        self.log.append([now, "inject_fault",
                         [event.as_dict() for event in events]])
        return len(events)

    def _extend_packet_injectors(self, events: Sequence[FaultEvent],
                                 merged: FaultSchedule,
                                 now: float) -> None:
        """Wire new stochastic loss events into live station uplinks."""
        assert self.sim is not None
        sim = self.sim
        sim._faults = merged if len(merged) else None
        for event in events:
            if not event.is_stochastic:
                continue
            device = sim.gsl_device(self.network.num_satellites + event.gid)
            injector = device._fault_injector
            if injector is None:
                device._fault_injector = LinkFaultInjector(
                    device.name, [event], seed=merged.seed)
            else:
                injector.extend([event], now)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    @spans.timed("service.query")
    def status(self) -> Dict[str, Any]:
        """A compact JSON-expressible view of the service state."""
        status: Dict[str, Any] = {
            "engine": self.engine,
            "time_s": self.clock_s,
            "horizon_s": self.horizon_s,
            "epoch_s": self.epoch_s,
            "done": self.done,
            "attached": len(self._attached),
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

    @spans.timed("service.query")
    def metrics_dict(self, include_series: bool = True) -> Dict[str, Any]:
        """The live metrics registry contents (``repro.obs`` form)."""
        return self.metrics.as_dict(include_series=include_series)

    @spans.timed("service.report")
    def report(self) -> RunReport:
        """The unified run report of the simulation so far.

        The packet engine reports at any epoch boundary; the fluid
        engine reports once the horizon is reached (a fluid
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

    @cached_property
    def initial_spec_json(self) -> str:
        """:attr:`initial_spec` as JSON, made at the first save: it never
        changes, and encoding its workload costs milliseconds and MBs."""
        return json_text(self.initial_spec.as_dict())

    @cached_property
    def initial_spec_hash(self) -> str:
        """:attr:`initial_spec`'s fingerprint, made at the first save for
        the same reasons."""
        return self.initial_spec.fingerprint()

    def state_digest(self, log_text: Optional[str] = None) -> str:
        """A sha256 of what a restore must reproduce: :attr:`log`,
        :meth:`status`, the link capacity, the attach handles, the packet
        counters or fluid residuals, and the FCTs so far.  ``log_text``
        is ``json_text(self.log)`` when the caller has encoded it."""
        record = {
            "status": self.status(),
            "link_capacity_bps": self.link_capacity_bps,
            "handles": sorted(self._attached),
            "packets": None if self.sim is None else self.sim.stats.as_dict(),
        }
        if log_text is None:
            log_text = json_text(self.log)
        digest = hashlib.sha256(
            json_text_with(record, "log", log_text).encode("utf-8"))
        if self.state is not None:
            digest.update(self.state.residual_bits.tobytes())
        digest.update(self.fct_values().tobytes())
        return digest.hexdigest()

    def save(self, path: str,
             meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Checkpoint to a file (:mod:`repro.service.checkpoint`);
        returns its header.  ``meta`` adds to the service's own
        :attr:`meta` in the header."""
        return save_checkpoint(path, self, meta)

    @classmethod
    def resume(cls, path: str,
               expected_spec: Optional[NetworkSpec] = None
               ) -> "LiveSimulationService":
        """Rebuild the service a checkpoint file describes and replay
        its log (:func:`~repro.service.checkpoint.load_checkpoint`)."""
        return load_checkpoint(path, expected_spec=expected_spec)
