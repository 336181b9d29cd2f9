"""Time-stepped forwarding state inside the packet simulator.

Paper §3.1: forwarding state is precomputed at a configurable granularity
(default 100 ms) and its changes are injected into the discrete event
queue: when the event fires, new static routing entries are read, and the
next change event is scheduled one interval later.  This module is that
mechanism.

Between updates, packets follow the *installed* state even though satellites
keep moving — which is exactly what produces the paper's observed detour
spikes (Fig. 3(c)) when a packet chases a path that is no longer shortest.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from typing import TYPE_CHECKING

import numpy as np

from ..obs import spans
from ..obs.trace import FWD_UPDATE, NULL_TRACER, ROUTE_CHANGE, Tracer
from ..routing.engine import (
    UNREACHABLE,
    DestinationRouting,
    RoutingEngine,
)
from ..topology.network import LeoNetwork, TopologySnapshot
from .events import EventScheduler

if TYPE_CHECKING:
    from ..routing.engine import RoutingPerfCounters
    from .devices import LinkDevice

__all__ = ["ForwardingController"]


class ForwardingController:
    """Installs and refreshes shortest-path forwarding state periodically.

    Args:
        network: The LEO network.
        scheduler: The simulation clock to hook update events into.
        update_interval_s: Forwarding-state recomputation period (paper
            default 0.1 s).
        perf: Optional shared routing perf-counter sink (surfaced through
            ``SimulationStats`` by the packet simulator).
        tracer: Trace sink for forwarding-state updates and route-change
            events (default: the no-op ``NULL_TRACER``).

    Each update computes every registered destination's tree in a single
    batched Dijkstra (:meth:`RoutingEngine.route_to_many`).
    """

    def __init__(self, network: LeoNetwork, scheduler: EventScheduler,
                 update_interval_s: float = 0.1,
                 perf: "Optional[RoutingPerfCounters]" = None,
                 tracer: Optional[Tracer] = None) -> None:
        if update_interval_s <= 0.0:
            raise ValueError(
                f"update interval must be positive, got {update_interval_s}")
        self.network = network
        self.update_interval_s = update_interval_s
        self._scheduler = scheduler
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._engine = RoutingEngine(network, perf=perf,
                                     tracer=self._tracer)
        self._destinations: Set[int] = set()
        self._routing: Dict[int, DestinationRouting] = {}
        #: ``(node, dst_node) -> (device, next_hop)`` for the pairs the
        #: forwarding plane resolved since the last refresh.  Filled by
        #: :meth:`PacketSimulator._forward` (which owns the devices),
        #: emptied here whenever the installed state changes.
        self.hop_memo: Dict[Tuple[int, int],
                            Tuple["LinkDevice", int]] = {}
        self._snapshot: Optional[TopologySnapshot] = None
        self._started = False
        self._num_sats = network.num_satellites
        self._epoch_s = 0.0
        self._update_count = 0

    @property
    def snapshot(self) -> Optional[TopologySnapshot]:
        """The snapshot the installed forwarding state was computed from."""
        return self._snapshot

    def register_destination(self, dst_gid: int) -> None:
        """Declare that traffic will be addressed to this ground station.

        Must be called before :meth:`start` or mid-run; state for newly
        registered destinations is computed at the next update (or
        immediately if the controller is already running).
        """
        if not 0 <= dst_gid < self.network.num_ground_stations:
            raise ValueError(f"gid {dst_gid} out of range")
        self._destinations.add(dst_gid)
        if self._started and self._snapshot is not None:
            self._refresh_routing()

    def start(self) -> None:
        """Install state for time 0 and schedule periodic refreshes."""
        if self._started:
            raise RuntimeError("forwarding controller already started")
        self._started = True
        self._epoch_s = self._scheduler.now
        self._update()

    def _update(self) -> None:
        now = self._scheduler.now
        self._snapshot = self.network.snapshot(now)
        self._refresh_routing()
        # Reschedule on the absolute grid epoch + k * interval: a relative
        # delay accumulates float drift against the paper's 0.1 s snapshot
        # grid (k additions instead of one multiplication).
        self._update_count += 1
        self._scheduler.schedule_at(
            self._epoch_s + self._update_count * self.update_interval_s,
            self._update)

    def _refresh_routing(self) -> None:
        """Recompute all destination trees against the current snapshot."""
        profiler = spans.ACTIVE
        span = (profiler.begin("fwd.refresh_routing")
                if profiler.enabled else -1)
        tracer = self._tracer
        old_routing = self._routing if tracer.enabled else {}
        if self._destinations:
            assert self._snapshot is not None
            multi = self._engine.route_to_many(
                self._snapshot, sorted(self._destinations))
            self._routing = {
                dst_gid: multi.routing_for(dst_gid)
                for dst_gid in self._destinations
            }
        else:
            self._routing = {}
        self.hop_memo.clear()
        if tracer.enabled:
            now = self._scheduler.now
            tracer.emit(now, FWD_UPDATE, value=float(len(self._routing)))
            for dst_gid, routing in self._routing.items():
                previous = old_routing.get(dst_gid)
                if previous is None:
                    continue
                changed = int(np.count_nonzero(
                    previous.next_hop != routing.next_hop))
                if changed:
                    tracer.emit(now, ROUTE_CHANGE, node=routing.dst_node,
                                seq=dst_gid, value=float(changed))
        if span != -1:
            profiler.end(span)

    # ------------------------------------------------------------------
    # Lookup API used by the packet forwarder
    # ------------------------------------------------------------------

    def next_hop_from_satellite(self, sat_id: int,
                                dst_gid: int) -> Optional[int]:
        """Installed next hop of a satellite toward a destination GS."""
        routing = self._routing.get(dst_gid)
        if routing is None:
            raise KeyError(f"destination gid {dst_gid} was never registered")
        hop = int(routing.next_hop[sat_id])
        return None if hop == UNREACHABLE else hop

    def next_hop_from_ground(self, src_gid: int,
                             dst_gid: int) -> Optional[int]:
        """Installed ingress satellite of a ground station (source/relay).

        For relay GSes the transit tree already contains them, so their
        next hop comes straight from the predecessor array; plain source
        GSes choose the ingress minimizing uplink + satellite distance.
        """
        routing = self._routing.get(dst_gid)
        if routing is None:
            raise KeyError(f"destination gid {dst_gid} was never registered")
        station = self.network.ground_stations[src_gid]
        node_id = self.network.gs_node_id(src_gid)
        if station.is_relay:
            hop = int(routing.next_hop[node_id])
            return None if hop == UNREACHABLE else hop
        assert self._snapshot is not None
        return routing.source_ingress(self._snapshot.gsl_edges[src_gid])[0]
