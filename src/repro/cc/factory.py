"""Controller-aware flow construction for workload spawners.

:class:`ControllerFlowFactory` is the bridge between the traffic layer
(which spawns one finite transfer per
:class:`~repro.traffic.arrivals.FlowRequest`) and the controller
registry: it builds :class:`~repro.transport.tcp.TcpFlow` applications
running a *named* controller, holding any cross-flow shared state (a
learned controller's brain) so it rides along when a
:class:`~repro.service.LiveSimulationService` checkpoint pickles the
spawners.  Instances carry only the controller name, kwargs, and that
shared state — they pickle and travel to sweep/lab worker processes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..simulation.packet import DEFAULT_HEADER_BYTES, DEFAULT_MTU_BYTES
from .api import CONTROLLERS, make_controller

if TYPE_CHECKING:  # the traffic layer imports transport, which imports us
    from ..traffic.arrivals import FlowRequest

__all__ = ["ControllerFlowFactory"]


class ControllerFlowFactory:
    """Build one :class:`~repro.transport.tcp.TcpFlow` per request,
    running the named controller.

    Args:
        controller: A registered controller name.
        controller_kwargs: Constructor kwargs for each flow's controller.
        packet_bytes: Wire size of a full data packet.
        share_state: Build the controller class's shared state once
            (``make_shared_state``) and hand it to every flow — for the
            bandit this is the brain all flows learn through.  Classic
            controllers share nothing either way.

    Usage: ``WorkloadSpawner(schedule, flow_factory=factory)``.
    """

    def __init__(self, controller: str = "newreno",
                 controller_kwargs: Optional[Dict[str, Any]] = None,
                 packet_bytes: int = DEFAULT_MTU_BYTES,
                 share_state: bool = True) -> None:
        if controller not in CONTROLLERS:
            # Same failure surface as make_controller, but at
            # construction time rather than first flow arrival.
            make_controller(controller)
        self.controller = controller
        self.controller_kwargs = dict(controller_kwargs or {})
        self.packet_bytes = packet_bytes
        self.shared_state: Dict[str, Any] = {}
        if share_state:
            cls = CONTROLLERS[controller]
            maker = getattr(cls, "make_shared_state", None)
            if maker is not None:
                self.shared_state = maker(**self.controller_kwargs)

    def __call__(self, request: FlowRequest):
        """The one request → flow rule (``WorkloadSpawner``'s default
        too): a ``TcpFlow`` of ``ceil(size_bytes / payload)`` packets,
        never fewer than one."""
        # Imported lazily: repro.transport.tcp itself imports repro.cc
        # for the registry, so a module-level import here would cycle.
        from ..transport.tcp import TcpFlow
        payload = self.packet_bytes - DEFAULT_HEADER_BYTES
        controller = make_controller(
            self.controller, **{**self.controller_kwargs,
                                **self.shared_state})
        return TcpFlow(
            request.src_gid, request.dst_gid,
            start_s=request.t_start_s,
            packet_bytes=self.packet_bytes,
            max_packets=max(1, math.ceil(request.size_bytes / payload)),
            controller=controller)
