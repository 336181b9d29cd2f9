"""Workload-driven application spawning for the packet simulator.

The fluid engines consume a :class:`~repro.traffic.arrivals.
WorkloadSchedule` directly (finite flows with start times); the packet
simulator consumes it through this module: a :class:`WorkloadSpawner`
installs one finite :class:`~repro.transport.tcp.TcpFlow` per
:class:`~repro.traffic.arrivals.FlowRequest`, every one running the
spawner's named congestion controller, and records flow-completion
times as they happen.

Observability: given a :class:`~repro.obs.metrics.MetricsRegistry`, the
spawner maintains the ``traffic.*`` instruments — an FCT histogram, the
offered/delivered byte counters, and an active-flow-count series sampled
at every arrival and completion — which flow into the packet run's
:class:`~repro.obs.report.RunReport` like any other registry contents.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Dict, List, Optional, Sequence

from ..cc.classic import controller_class
from ..obs.metrics import MetricsRegistry
from ..obs.report import FCT_BUCKETS, fct_summary
from ..simulation.packet import DEFAULT_HEADER_BYTES, DEFAULT_MTU_BYTES
from ..simulation.simulator import PacketSimulator
from ..transport.tcp import TcpFlow
from .arrivals import FlowRequest, WorkloadSchedule

__all__ = ["WorkloadSpawner", "FCT_BUCKETS", "packet_fct_section"]


def packet_fct_section(spawners: Sequence["WorkloadSpawner"],
                       metrics: MetricsRegistry) -> Dict[str, Any]:
    """The ``fct`` section of a packet run's :class:`~repro.obs.report.
    RunReport`, over every spawner that shares ``metrics``.

    The same shape :func:`repro.obs.report.fluid_run_report` emits, so
    packet and fluid FCT distributions compare bucket-for-bucket, plus
    one :func:`~repro.obs.report.fct_summary` row per congestion
    controller that completed a flow.  The histogram is the registry's
    own ``traffic.fct_s`` — every spawner observes into it in completion
    order, so its float accumulation is identical no matter how the same
    flows were split across spawners (one baked-in schedule vs several
    live attachments).
    """
    by_controller: Dict[str, List[float]] = {}
    for spawner in spawners:
        if spawner.fcts_s:
            by_controller.setdefault(spawner.controller,
                                     []).extend(spawner.fcts_s)
    rows: Dict[str, Dict[str, float]] = {}
    for name, fcts in sorted(by_controller.items()):
        stats = fct_summary(fcts)
        del stats["fct_max_s"]
        rows[name] = {"flows_completed": float(len(fcts)), **stats}
    return {
        "histogram": metrics.histogram("traffic.fct_s",
                                       buckets=FCT_BUCKETS).as_dict(),
        "flows_finite": sum(s.schedule.num_flows for s in spawners),
        "flows_completed": sum(s.completed for s in spawners),
        "offered_bits": sum(s.schedule.offered_bits for s in spawners),
        "delivered_bits": sum(float(s._delivered_bytes) * 8.0
                              for s in spawners),
        "by_controller": rows,
    }


class WorkloadSpawner:
    """Run a workload schedule as finite TCP transfers on a packet sim.

    Args:
        schedule: The flow requests to spawn.
        metrics: Optional registry receiving the ``traffic.*``
            instruments.
        controller: The congestion controller every flow runs, a key
            of :data:`repro.cc.CONTROLLERS`; an unknown name is a
            ``ValueError`` here, not at the first arrival.

    Example::

        sim = hypatia.build_packet_simulator()
        spawner = WorkloadSpawner(schedule, metrics=registry).install(sim)
        sim.run(duration_s)
        print(packet_fct_section([spawner], registry))
    """

    def __init__(self, schedule: WorkloadSchedule,
                 metrics: Optional[MetricsRegistry] = None,
                 controller: str = "newreno") -> None:
        controller_class(controller)
        self.schedule = schedule
        self.metrics = metrics
        self.controller = controller
        self.flows: List[TcpFlow] = []
        self.fcts_s: List[float] = []
        self.started = 0
        self.completed = 0
        self._active = 0
        self._delivered_bytes = 0.0
        self.sim: Optional[PacketSimulator] = None

    # ------------------------------------------------------------------

    def install(self, sim: PacketSimulator) -> "WorkloadSpawner":
        """Install every request's transfer; returns self for chaining."""
        if self.sim is not None:
            raise RuntimeError("spawner is already installed")
        self.sim = sim
        registry = self.metrics
        if registry is not None:
            # Claim the instruments up front so an empty run still
            # reports zeroed traffic accounting.
            registry.histogram("traffic.fct_s", buckets=FCT_BUCKETS)
            registry.counter("traffic.flows_started")
            registry.counter("traffic.flows_completed")
            registry.counter("traffic.offered_bytes").inc(
                float(sum(r.size_bytes for r in self.schedule)))
            registry.counter("traffic.delivered_bytes")
            registry.series("traffic.active_flows")
        for request in self.schedule:
            self._install_request(sim, request)
        return self

    def _install_request(self, sim: PacketSimulator,
                         request: FlowRequest) -> None:
        """Install one request's transfer and its start/complete hooks.

        The transfer is ``ceil(size_bytes / payload)`` full-size packets,
        never fewer than one.  Both hooks are ``partial``s of bound
        methods.
        """
        payload = DEFAULT_MTU_BYTES - DEFAULT_HEADER_BYTES
        flow = TcpFlow(
            request.src_gid, request.dst_gid, start_s=request.t_start_s,
            max_packets=max(1, math.ceil(request.size_bytes / payload)),
            controller=self.controller).install(sim)
        flow.on_complete = partial(self._on_flow_complete, request)
        self.flows.append(flow)
        sim.scheduler.schedule_at(request.t_start_s,
                                  partial(self._on_flow_started, flow))

    def _on_flow_started(self, flow: TcpFlow) -> None:
        assert self.sim is not None
        if flow.stop_s <= flow.start_s:
            return  # cancelled before it started (a detached workload)
        self.started += 1
        self._active += 1
        registry = self.metrics
        if registry is not None:
            registry.counter("traffic.flows_started").inc()
            self._sample_active(self.sim.now, +1.0)

    def _on_flow_complete(self, request: FlowRequest, now_s: float) -> None:
        fct = now_s - request.t_start_s
        self.completed += 1
        self._active -= 1
        self._delivered_bytes += float(request.size_bytes)
        self.fcts_s.append(fct)
        registry = self.metrics
        if registry is not None:
            registry.counter("traffic.flows_completed").inc()
            registry.counter("traffic.delivered_bytes").inc(
                float(request.size_bytes))
            registry.histogram("traffic.fct_s",
                               buckets=FCT_BUCKETS).observe(fct)
            self._sample_active(now_s, -1.0)

    def _sample_active(self, now_s: float, delta: float) -> None:
        """Append the registry-global active-flow count to the series.

        The count continues from the series' last sample rather than
        this spawner's own ``_active``, so several spawners sharing one
        registry (a live service attaching workloads over time) record
        the same global series a single merged schedule would.
        """
        series = self.metrics.series("traffic.active_flows")
        last = series.values[-1] if series.values else 0.0
        series.append(now_s, last + delta)

    # ------------------------------------------------------------------

    @property
    def active(self) -> int:
        """Flows started but not yet completed."""
        return self._active
