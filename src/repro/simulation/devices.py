"""Network devices: drop-tail queues feeding rate-limited transmitters.

Mirrors the ns-3 point-to-point device model the paper's experiments use:

* every device owns a FIFO drop-tail queue sized in packets (paper default
  100);
* transmission takes ``size * 8 / rate`` seconds of exclusive device time
  (serialization delay);
* on transmit completion the packet incurs the *current* propagation delay
  to its next hop — recomputed from live satellite geometry — and is
  delivered there.

Per paper §3.1, each satellite has one device per ISL plus a single shared
GSL device; each ground station has a single GSL device.  The sharing is
load-bearing: in the Appendix-A bent-pipe experiment, data packets and the
reverse flow's ACKs contend for the same satellite GSL device queue, which
visibly perturbs TCP (Fig. 19(b)).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..obs.trace import (NULL_TRACER, PKT_DROP, PKT_ENQUEUE, PKT_TX_FINISH,
                         PKT_TX_START, Tracer)
from .events import EventScheduler
from .packet import Packet
from .positions import PositionService

__all__ = ["LinkDevice", "DeviceStats", "DROPPED_FAULT"]


class _DroppedFault:
    """Falsy sentinel :meth:`LinkDevice.enqueue` returns for an injected
    fault drop, so call sites keep their ``if not enqueue(...)`` shape
    while the simulator can still tell fault drops from queue drops."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "DROPPED_FAULT"


#: The shared fault-drop sentinel (identity-comparable, always falsy).
DROPPED_FAULT = _DroppedFault()


class DeviceStats:
    """Counters of one device, for utilization and loss accounting."""

    __slots__ = ("packets_sent", "bytes_sent", "packets_dropped",
                 "packets_dropped_fault", "busy_time_s")

    def __init__(self) -> None:
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_dropped = 0
        self.packets_dropped_fault = 0
        self.busy_time_s = 0.0


class LinkDevice:
    """One transmitting device of a node (an ISL endpoint or a GSL radio).

    Args:
        scheduler: The simulation clock.
        positions: Geometry service for live propagation delays.
        node_id: Owning node.
        rate_bps: Line rate (bits/second).
        queue_packets: Drop-tail queue capacity, in packets, *excluding* the
            packet currently being serialized (ns-3 convention).
        deliver: Callback ``(packet, to_node)`` invoked at the receiver after
            serialization + propagation.
        name: Diagnostic label, e.g. ``"isl-17-18"`` or ``"gsl-1203"``.
        tracer: Trace sink for enqueue/tx/drop events; the default
            :data:`~repro.obs.trace.NULL_TRACER` costs one attribute
            check per event.
        fault_injector: Optional
            :class:`repro.faults.LinkFaultInjector`; when set, every
            offered packet is first subjected to its seeded Bernoulli
            loss decision, and a positive verdict drops the
            packet with the ``fault`` reason (returning
            :data:`DROPPED_FAULT`).
    """

    __slots__ = ("_scheduler", "_positions", "node_id", "rate_bps",
                 "queue_packets", "_deliver", "name", "_queue", "_busy",
                 "stats", "_tracer", "_tx_start_s", "_fault_injector")

    def __init__(self, scheduler: EventScheduler, positions: PositionService,
                 node_id: int, rate_bps: float, queue_packets: int,
                 deliver: Callable[[Packet, int], None],
                 name: str = "", tracer: Optional[Tracer] = None,
                 fault_injector=None) -> None:
        if rate_bps <= 0.0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if queue_packets < 0:
            raise ValueError(f"queue size must be >= 0, got {queue_packets}")
        self._scheduler = scheduler
        self._positions = positions
        self.node_id = node_id
        self.rate_bps = rate_bps
        self.queue_packets = queue_packets
        self._deliver = deliver
        self.name = name or f"dev-{node_id}"
        self._queue: Deque[Tuple[Packet, int]] = deque()
        self._busy = False
        self._tx_start_s = 0.0
        self.stats = DeviceStats()
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if fault_injector is not None and not fault_injector.has_events:
            fault_injector = None
        self._fault_injector = fault_injector

    @property
    def queue_length(self) -> int:
        """Packets currently waiting (not counting the one in flight)."""
        return len(self._queue)

    @property
    def is_busy(self) -> bool:
        """Whether a packet is currently being serialized."""
        return self._busy

    def busy_time_s(self, now: Optional[float] = None) -> float:
        """Cumulative busy time up to ``now`` (default: the current clock).

        Completed serializations are credited in full at transmit finish;
        a still in-flight packet contributes only its elapsed fraction, so
        a measurement window that ends mid-serialization never counts
        transmission time that has not happened yet.
        """
        total = self.stats.busy_time_s
        if self._busy:
            if now is None:
                now = self._scheduler.now
            total += max(0.0, now - self._tx_start_s)
        return total

    def enqueue(self, packet: Packet, to_node: int):
        """Submit a packet for transmission to ``to_node``.

        Returns:
            True on acceptance; plain ``False`` if the drop-tail queue
            was full; the falsy :data:`DROPPED_FAULT` sentinel if an
            injected fault discarded the packet at the transmitter.
        """
        tracer = self._tracer
        injector = self._fault_injector
        if injector is not None:
            verdict = injector.drop_reason(self._scheduler.now)
            if verdict is not None:
                self.stats.packets_dropped_fault += 1
                if tracer.enabled:
                    tracer.emit(self._scheduler.now, PKT_DROP,
                                node=self.node_id, flow=packet.flow_id,
                                link=self.name, seq=packet.seq,
                                reason="fault")
                return DROPPED_FAULT
        if self._busy:
            if len(self._queue) >= self.queue_packets:
                self.stats.packets_dropped += 1
                if tracer.enabled:
                    tracer.emit(self._scheduler.now, PKT_DROP,
                                node=self.node_id, flow=packet.flow_id,
                                link=self.name, seq=packet.seq,
                                value=float(len(self._queue)),
                                reason="queue")
                return False
            self._queue.append((packet, to_node))
            if tracer.enabled:
                tracer.emit(self._scheduler.now, PKT_ENQUEUE,
                            node=self.node_id, flow=packet.flow_id,
                            link=self.name, seq=packet.seq,
                            value=float(len(self._queue)))
            return True
        if tracer.enabled:
            tracer.emit(self._scheduler.now, PKT_ENQUEUE, node=self.node_id,
                        flow=packet.flow_id, link=self.name, seq=packet.seq,
                        value=0.0)
        self._start_transmission(packet, to_node)
        return True

    def _start_transmission(self, packet: Packet, to_node: int) -> None:
        self._busy = True
        self._tx_start_s = self._scheduler.now
        tx_time = packet.size_bytes * 8.0 / self.rate_bps
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self._scheduler.now, PKT_TX_START, node=self.node_id,
                        flow=packet.flow_id, link=self.name, seq=packet.seq,
                        value=tx_time)
        # A bound method plus record fields, not a closure: no callable
        # is allocated per packet.
        self._scheduler.schedule_call(
            tx_time, self._finish_transmission, packet, to_node)

    def _finish_transmission(self, packet: Packet, to_node: int) -> None:
        now = self._scheduler.now
        stats = self.stats
        # Busy time is credited only once the serialization completed;
        # crediting at start over-counted windows ending mid-packet.
        stats.busy_time_s += now - self._tx_start_s
        stats.packets_sent += 1
        stats.bytes_sent += packet.size_bytes
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(now, PKT_TX_FINISH, node=self.node_id,
                        flow=packet.flow_id, link=self.name, seq=packet.seq)
        # Propagation delay from live geometry at the moment the last bit
        # leaves the transmitter (paper: "latencies are correctly calculated
        # based on satellite motion").
        propagation = self._positions.delay_s(self.node_id, to_node, now)
        self._scheduler.schedule_call(propagation, self._deliver,
                                      packet, to_node)
        if self._queue:
            next_packet, next_to = self._queue.popleft()
            self._start_transmission(next_packet, next_to)
        else:
            self._busy = False
