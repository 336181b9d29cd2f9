"""The packet-level LEO network simulator.

This is the reproduction of Hypatia's ns-3 module: a discrete-event
simulator over the time-varying constellation topology, with

* drop-tail devices per ISL direction and one shared GSL device per node,
  each built when a packet first needs it,
* live per-packet propagation delays from satellite geometry,
* periodic forwarding-state updates injected as events (paper §3.1),
* loss-free GS handoffs (in-flight packets are still delivered after a
  satellite moves out of reach; new packets just stop being routed to it —
  paper §3.1's simplifying assumption).

Applications (TCP/UDP/ping, in :mod:`repro.transport`) attach to ground
station nodes and exchange packets identified by flow ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..faults.injector import LinkFaultInjector
from ..faults.schedule import FaultEvent, FaultSchedule
from ..obs import spans
from ..obs.metrics import MetricsRegistry
from ..obs.probes import SimulatorProbe
from ..obs.report import RunReport, packet_run_report
from ..obs.trace import NULL_TRACER, PKT_DELIVER, PKT_DROP, Tracer
from ..routing.engine import RoutingPerfCounters
from ..topology.network import LeoNetwork
from .devices import DROPPED_FAULT, LinkDevice
from .events import EventScheduler
from .forwarding import ForwardingController
from .packet import Packet
from .positions import PositionService

__all__ = ["LinkConfig", "PacketSimulator", "SimulationStats"]

#: Packets are dropped after this many forwarding steps; transient routing
#: inconsistencies during state updates can otherwise loop a packet.
MAX_HOPS = 64


@dataclass(frozen=True)
class LinkConfig:
    """Link-layer parameters, uniform across the network (paper §3.4).

    Attributes:
        isl_rate_bps: Line rate of every ISL.
        gsl_rate_bps: Line rate of every GSL device.
        isl_queue_packets: Drop-tail queue capacity per ISL device.
        gsl_queue_packets: Drop-tail queue capacity per GSL device.
    """

    isl_rate_bps: float = 10_000_000.0
    gsl_rate_bps: float = 10_000_000.0
    isl_queue_packets: int = 100
    gsl_queue_packets: int = 100

    def __post_init__(self) -> None:
        if self.isl_rate_bps <= 0 or self.gsl_rate_bps <= 0:
            raise ValueError("link rates must be positive")
        if self.isl_queue_packets < 0 or self.gsl_queue_packets < 0:
            raise ValueError("queue sizes must be non-negative")


class SimulationStats:
    """Network-layer counters and work accounting of one simulation run.

    Besides packet counters, carries the events processed and the
    routing engine's shared perf counters.  Wall-clock time is the span
    profiler's (``simulation.run``, around ``fwd.refresh_routing`` and
    its ``routing.*`` spans; see :mod:`repro.obs.spans`).
    """

    def __init__(self) -> None:
        self.packets_forwarded = 0
        self.packets_delivered = 0
        self.packets_dropped_no_route = 0
        self.packets_dropped_queue = 0
        self.packets_dropped_ttl = 0
        self.packets_dropped_no_handler = 0
        self.packets_dropped_fault = 0
        self.events_processed = 0
        self.routing = RoutingPerfCounters()

    @property
    def packets_dropped(self) -> int:
        """All drops regardless of cause."""
        return (self.packets_dropped_no_route + self.packets_dropped_queue
                + self.packets_dropped_ttl
                + self.packets_dropped_no_handler
                + self.packets_dropped_fault)

    def as_dict(self) -> Dict[str, int]:
        """The packet counters as a flat dict (report-facing)."""
        return {
            "packets_forwarded": self.packets_forwarded,
            "packets_delivered": self.packets_delivered,
            "packets_dropped": self.packets_dropped,
            "packets_dropped_no_route": self.packets_dropped_no_route,
            "packets_dropped_queue": self.packets_dropped_queue,
            "packets_dropped_ttl": self.packets_dropped_ttl,
            "packets_dropped_no_handler": self.packets_dropped_no_handler,
            "packets_dropped_fault": self.packets_dropped_fault,
        }

    def perf_summary(self) -> Dict[str, float]:
        """Flat benchmark-facing summary of the run's work."""
        summary = {"events_processed": self.events_processed}
        summary.update(self.routing.as_dict())
        return summary


class PacketSimulator:
    """Discrete-event packet simulation over a LEO network.

    Args:
        network: Constellation + ground stations + connectivity parameters.
        link_config: Uniform link rates and queue sizes.
        forwarding_interval_s: Forwarding-state update period (default
            100 ms, the paper's default granularity).

    Per-packet propagation delays are computed on a 1 ms time grid.

    Typical use::

        sim = PacketSimulator(network)
        app = TcpSender(...); app.install(sim)
        sim.run(200.0)
    """

    def __init__(self, network: LeoNetwork,
                 link_config: Optional[LinkConfig] = None,
                 forwarding_interval_s: float = 0.1,
                 tracer: Optional[Tracer] = None
                 ) -> None:
        """See class docstring.

        ``tracer`` (default: the no-op ``NULL_TRACER``) receives the
        structured trace events of every layer — device enqueue/tx/drop,
        network-layer drops and deliveries, forwarding-state updates,
        and route changes.
        """
        self.network = network
        self.config = link_config or LinkConfig()
        self.scheduler = EventScheduler()
        self.positions = PositionService(network, quantum_s=0.001)
        self.stats = SimulationStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.forwarding = ForwardingController(
            network, self.scheduler, update_interval_s=forwarding_interval_s,
            perf=self.stats.routing, tracer=self.tracer)
        self._num_sats = network.num_satellites
        # Stochastic loss events live on the network's fault schedule;
        # each affected station uplink gets its own injector whose RNG
        # stream is derived from (schedule seed, device name).
        faults = network.faults
        self._faults = faults if faults is not None and len(faults) else None
        # Devices are built the first time a packet needs one (most
        # links of a constellation never carry a packet); ``_isl_keys``
        # holds every directed ISL ``a * N + b`` sorted, and
        # ``_isl_ranks`` its place in ``network.isl_pairs`` order, both
        # directions: the one ISL table, kept as two int arrays.
        pairs = np.asarray(network.isl_pairs, dtype=np.int64).reshape(-1, 2)
        directed = np.empty(2 * len(pairs), dtype=np.int64)
        directed[0::2] = pairs[:, 0] * self._num_sats + pairs[:, 1]
        directed[1::2] = pairs[:, 1] * self._num_sats + pairs[:, 0]
        self._isl_ranks = np.argsort(directed)
        self._isl_keys = directed[self._isl_ranks]
        self._isl_devices: Dict[Tuple[int, int], LinkDevice] = {}
        self._gsl_devices: Dict[int, LinkDevice] = {}
        # (node_id, flow_id) -> packet handler of the application endpoint.
        self._handlers: Dict[Tuple[int, int], Callable[[Packet], None]] = {}
        #: The last flow id :meth:`next_flow_id` handed out.  It lives
        #: with the simulation, so two identical runs number their flows
        #: identically in one process.
        self._last_flow_id = 0
        self._started = False

    def _isl_rank(self, src: int, dst: int) -> int:
        """Place of the directed ISL ``src -> dst`` in link order; a pair
        that is no ISL of the network is a ``KeyError``."""
        key = src * self._num_sats + dst
        index = int(np.searchsorted(self._isl_keys, key))
        if index == len(self._isl_keys) or self._isl_keys[index] != key:
            raise KeyError((src, dst))
        return int(self._isl_ranks[index])

    def _build_isl_device(self, src: int, dst: int) -> LinkDevice:
        """Build the device of ISL direction ``src -> dst`` (refusing a
        pair that is no ISL, so a routing bug cannot make a link)."""
        self._isl_rank(src, dst)
        device = LinkDevice(
            self.scheduler, self.positions, src,
            self.config.isl_rate_bps, self.config.isl_queue_packets,
            self._receive, name=f"isl-{src}-{dst}", tracer=self.tracer)
        self._isl_devices[(src, dst)] = device
        return device

    def _build_gsl_device(self, node: int) -> LinkDevice:
        """Build a node's shared GSL device; its loss injector reads the
        fault schedule as it stands now."""
        if not 0 <= node < self.network.num_nodes:
            raise KeyError(node)
        device = LinkDevice(
            self.scheduler, self.positions, node,
            self.config.gsl_rate_bps, self.config.gsl_queue_packets,
            self._receive, name=f"gsl-{node}", tracer=self.tracer,
            fault_injector=self._injector_for_gsl(node))
        self._gsl_devices[node] = device
        return device

    def _injector_for_gsl(self, node: int) -> Optional[LinkFaultInjector]:
        """Seeded injector of a node's shared GSL device.

        A gid-targeted loss event acts on the *station's* uplink device
        only; the satellite-side GSL devices are shared across stations,
        so per-station downlink loss cannot be attributed there.
        """
        if self._faults is None or node < self._num_sats:
            return None
        events = self._faults.loss_events_for_gid(node - self._num_sats)
        if not events:
            return None
        return LinkFaultInjector(f"gsl-{node}", events,
                                 seed=self._faults.seed)

    def extend_faults(self, faults: FaultSchedule,
                      events: Sequence[FaultEvent], now_s: float) -> None:
        """Make ``faults``, the schedule with ``events`` merged in, the
        live one.  A station uplink built already extends its injector
        by its new loss events (future windows only); one not built yet
        reads them all from ``faults`` when a packet first needs it, so
        no event is added twice."""
        self._faults = faults if len(faults) else None
        for event in events:
            if not event.is_stochastic:
                continue
            device = self._gsl_devices.get(self._num_sats + event.gid)
            if device is None:
                continue
            injector = device._fault_injector
            if injector is None:
                device._fault_injector = LinkFaultInjector(
                    device.name, [event], seed=faults.seed)
            else:
                injector.extend([event], now_s)

    # ------------------------------------------------------------------
    # Application-facing API
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.scheduler.now

    def gs_node_id(self, gid: int) -> int:
        """Node id of ground station ``gid``."""
        return self.network.gs_node_id(gid)

    def gid_of_node(self, node_id: int) -> int:
        """Ground station id of a GS node."""
        if node_id < self._num_sats:
            raise ValueError(f"node {node_id} is a satellite")
        return node_id - self._num_sats

    def next_flow_id(self) -> int:
        """A flow id no application installed here holds (1, 2, ...)."""
        self._last_flow_id += 1
        return self._last_flow_id

    def register_handler(self, node_id: int, flow_id: int,
                         handler: Callable[[Packet], None]) -> None:
        """Receive packets of ``flow_id`` arriving at ``node_id``."""
        key = (node_id, flow_id)
        if key in self._handlers:
            raise ValueError(
                f"flow {flow_id} already has a handler at node {node_id}")
        self._handlers[key] = handler
        if node_id >= self._num_sats:
            # Any endpoint of the flow may be a destination of its packets.
            self.forwarding.register_destination(self.gid_of_node(node_id))

    def send(self, packet: Packet) -> None:
        """Inject a packet at its source node (called by applications)."""
        self._forward(packet.src_node, packet)

    @spans.timed("simulation.run")
    def run(self, duration_s: float) -> None:
        """Start (if needed) and run the simulation until ``duration_s``,
        a finite, non-negative simulated time (anything else is a
        ``ValueError``: the forwarding refresh re-arms forever)."""
        if not 0.0 <= duration_s < math.inf:
            raise ValueError(f"duration must be finite and >= 0, "
                             f"got {duration_s}")
        if not self._started:
            self._started = True
            self.forwarding.start()
        self.scheduler.run(until_s=duration_s)
        self.stats.events_processed = self.scheduler.events_processed

    def gsl_device(self, node_id: int) -> LinkDevice:
        """The shared GSL device of a node, built now if no packet has
        needed it yet (a node id out of range is a ``KeyError``)."""
        device = self._gsl_devices.get(node_id)
        if device is None:
            device = self._build_gsl_device(node_id)
        return device

    def iter_devices(self) -> Iterator[LinkDevice]:
        """The devices built so far, in link order: ISL directions in
        ``network.isl_pairs`` order (``(a, b)`` then ``(b, a)``), then
        GSLs by node id.  A device is built when a packet first needs it
        (or :meth:`gsl_device` asks), so a link missing here has sent,
        dropped and held nothing."""
        isl = self._isl_devices
        for pair in sorted(isl, key=lambda pair: self._isl_rank(*pair)):
            yield isl[pair]
        gsl = self._gsl_devices
        for node in sorted(gsl):
            yield gsl[node]

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def attach_probe(self, registry: Optional[MetricsRegistry] = None,
                     interval_s: float = 1.0) -> SimulatorProbe:
        """Start a periodic metrics probe on this simulation's clock.

        Records per-link queue depth / utilization / throughput and
        scheduler event-rate series into ``registry`` every
        ``interval_s`` simulated seconds; see
        :class:`repro.obs.probes.SimulatorProbe`.
        """
        return SimulatorProbe(self, registry=registry,
                              interval_s=interval_s).start()

    def report(self, duration_s: Optional[float] = None,
               registry: Optional[MetricsRegistry] = None,
               include_series: bool = True) -> RunReport:
        """The unified run report (stats + optional metrics + trace)."""
        return packet_run_report(
            self, duration_s if duration_s is not None else self.now,
            registry=registry, include_series=include_series)

    # ------------------------------------------------------------------
    # Forwarding plane
    # ------------------------------------------------------------------

    def _forward(self, node: int, packet: Packet) -> None:
        if packet.hops >= MAX_HOPS:
            self.stats.packets_dropped_ttl += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(self.scheduler.now, PKT_DROP, node=node,
                            flow=packet.flow_id, seq=packet.seq,
                            reason="ttl")
            return
        packet.hops += 1
        hop = self.forwarding.hop_memo.get((node, packet.dst_node))
        if hop is None:
            hop = self._resolve_hop(node, packet)
            if hop is None:
                return
        device, next_hop = hop
        self.stats.packets_forwarded += 1
        accepted = device.enqueue(packet, next_hop)
        if not accepted:
            if accepted is DROPPED_FAULT:
                self.stats.packets_dropped_fault += 1
            else:
                self.stats.packets_dropped_queue += 1

    def _resolve_hop(self, node: int, packet: Packet
                     ) -> Optional[Tuple[LinkDevice, int]]:
        """Look the installed next hop up and memoise it with its device
        until the next forwarding refresh; a missing route drops the
        packet and is asked again next time."""
        dst_gid = packet.dst_node - self._num_sats
        if node >= self._num_sats:
            next_hop = self.forwarding.next_hop_from_ground(
                node - self._num_sats, dst_gid)
        else:
            next_hop = self.forwarding.next_hop_from_satellite(node, dst_gid)
        if next_hop is None:
            self.stats.packets_dropped_no_route += 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(self.scheduler.now, PKT_DROP, node=node,
                            flow=packet.flow_id, seq=packet.seq,
                            reason="no_route")
            return None
        if node < self._num_sats and next_hop < self._num_sats:
            device = self._isl_devices.get((node, next_hop))
            if device is None:
                device = self._build_isl_device(node, next_hop)
        else:
            device = self.gsl_device(node)
        hop = (device, next_hop)
        self.forwarding.hop_memo[(node, packet.dst_node)] = hop
        return hop

    def _receive(self, packet: Packet, node: int) -> None:
        if node == packet.dst_node:
            handler = self._handlers.get((node, packet.flow_id))
            if handler is not None:
                self.stats.packets_delivered += 1
                tracer = self.tracer
                if tracer.enabled:
                    tracer.emit(self.scheduler.now, PKT_DELIVER, node=node,
                                flow=packet.flow_id, seq=packet.seq)
                handler(packet)
            else:
                # The packet reached its destination but no application
                # claims the flow; count it so no packet ever vanishes
                # from the accounting.
                self.stats.packets_dropped_no_handler += 1
                tracer = self.tracer
                if tracer.enabled:
                    tracer.emit(self.scheduler.now, PKT_DROP, node=node,
                                flow=packet.flow_id, seq=packet.seq,
                                reason="no_handler")
            return
        self._forward(node, packet)
