"""Application plumbing shared by all transports.

An application attaches to ground station endpoints of a
:class:`~repro.simulation.simulator.PacketSimulator` and exchanges packets
under a flow id.  Flow ids are allocated globally so that several
applications can coexist in one simulation (the constellation-wide
experiments of paper §5.4 run one TCP flow per GS pair).
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..obs.trace import NULL_TRACER, Tracer
from ..simulation.simulator import PacketSimulator

__all__ = ["Application", "allocate_flow_id", "ensure_flow_ids_above"]

_flow_ids = itertools.count(1)


def allocate_flow_id() -> int:
    """A process-wide unique flow id."""
    return next(_flow_ids)


def ensure_flow_ids_above(min_id: int) -> None:
    """Advance the allocator past ``min_id`` if it is not already.

    Restoring a checkpoint brings applications with already-allocated
    flow ids into a fresh process whose counter restarted at 1; the
    service calls this so workloads attached *after* the restore cannot
    collide with restored flows' handler registrations.
    """
    global _flow_ids
    probe = next(_flow_ids)
    _flow_ids = itertools.count(max(probe, min_id + 1))


class Application:
    """Base class of simulated applications.

    Subclasses implement :meth:`_start` (schedule their first action) and
    register packet handlers during :meth:`install`.

    Attributes:
        sim: The simulator, set by :meth:`install`.
        flow_id: This application's flow id.
        _tracer: The simulator's tracer after installation (the no-op
            ``NULL_TRACER`` before); transports guard flow-level events
            (cwnd, RTT, congestion-control state) behind its ``enabled``.
    """

    def __init__(self) -> None:
        self.flow_id = allocate_flow_id()
        self.sim: Optional[PacketSimulator] = None
        self._tracer: Tracer = NULL_TRACER

    def install(self, sim: PacketSimulator) -> "Application":
        """Attach to a simulator; returns self for chaining."""
        if self.sim is not None:
            raise RuntimeError("application is already installed")
        self.sim = sim
        self._tracer = sim.tracer
        self._install(sim)
        return self

    def _install(self, sim: PacketSimulator) -> None:
        """Register handlers and schedule the start; subclass hook."""
        raise NotImplementedError
