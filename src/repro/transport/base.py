"""Application plumbing shared by all transports.

An application attaches to ground station endpoints of a
:class:`~repro.simulation.simulator.PacketSimulator` and exchanges packets
under a flow id.  The simulator numbers the flows installed on it
(:meth:`~repro.simulation.simulator.PacketSimulator.next_flow_id`), so
several applications can coexist in one simulation (the
constellation-wide experiments of paper §5.4 run one TCP flow per GS
pair) and two identical simulations number their flows identically.
"""

from __future__ import annotations

from typing import Optional

from ..obs.trace import NULL_TRACER, Tracer
from ..simulation.simulator import PacketSimulator

__all__ = ["Application"]


class Application:
    """Base class of simulated applications.

    Subclasses implement :meth:`_start` (schedule their first action) and
    register packet handlers during :meth:`install`.

    Attributes:
        sim: The simulator, set by :meth:`install`.
        flow_id: This application's flow id, numbered by the simulator
            at :meth:`install` (-1 before).
        _tracer: The simulator's tracer after installation (the no-op
            ``NULL_TRACER`` before); transports guard flow-level events
            (cwnd, RTT, congestion-control state) behind its ``enabled``.
    """

    def __init__(self) -> None:
        self.flow_id = -1
        self.sim: Optional[PacketSimulator] = None
        self._tracer: Tracer = NULL_TRACER

    def install(self, sim: PacketSimulator) -> "Application":
        """Attach to a simulator; returns self for chaining."""
        if self.sim is not None:
            raise RuntimeError("application is already installed")
        self.sim = sim
        self.flow_id = sim.next_flow_id()
        self._tracer = sim.tracer
        self._install(sim)
        return self

    def _install(self, sim: PacketSimulator) -> None:
        """Register handlers and schedule the start; subclass hook."""
        raise NotImplementedError
