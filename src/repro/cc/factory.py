"""Controller-aware flow construction for workload spawners.

:class:`ControllerFlowFactory` is the bridge between the traffic layer
(which spawns one finite transfer per
:class:`~repro.traffic.arrivals.FlowRequest`) and the controller
registry: it builds :class:`~repro.transport.tcp.TcpFlow` applications
running a *named* controller.  Instances carry only the controller
name, so they pickle and travel to sweep/lab worker processes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..simulation.packet import DEFAULT_HEADER_BYTES, DEFAULT_MTU_BYTES
from .api import CONTROLLERS, make_controller

if TYPE_CHECKING:  # the traffic layer imports transport, which imports us
    from ..traffic.arrivals import FlowRequest

__all__ = ["ControllerFlowFactory"]


class ControllerFlowFactory:
    """Build one :class:`~repro.transport.tcp.TcpFlow` per request,
    running the named controller.

    Args:
        controller: A controller name.

    Usage: ``WorkloadSpawner(schedule, flow_factory=factory)``.
    """

    def __init__(self, controller: str = "newreno") -> None:
        if controller not in CONTROLLERS:
            # Same failure surface as make_controller, but at
            # construction time rather than first flow arrival.
            make_controller(controller)
        self.controller = controller

    def __call__(self, request: FlowRequest):
        """The one request → flow rule (``WorkloadSpawner``'s default
        too): a ``TcpFlow`` of ``ceil(size_bytes / payload)`` full-size
        packets, never fewer than one."""
        # Imported lazily: repro.transport.tcp itself imports repro.cc
        # for the registry, so a module-level import here would cycle.
        from ..transport.tcp import TcpFlow
        payload = DEFAULT_MTU_BYTES - DEFAULT_HEADER_BYTES
        return TcpFlow(
            request.src_gid, request.dst_gid,
            start_s=request.t_start_s,
            max_packets=max(1, math.ceil(request.size_bytes / payload)),
            controller=self.controller)
