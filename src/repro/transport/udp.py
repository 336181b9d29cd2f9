"""UDP: constant-rate paced datagram flows.

Paper §3.4: "each GS-pair sends each other constant-rate, paced UDP
traffic at the line rate, and goodput is calculated as the total rate of
network-wide payload arrivals."
"""

from __future__ import annotations

import math

from ..obs.trace import FLOW_RTT
from ..simulation.packet import DEFAULT_MTU_BYTES, Packet
from ..simulation.simulator import PacketSimulator
from .base import Application

__all__ = ["UdpFlow"]


class UdpFlow(Application):
    """A unidirectional paced UDP flow between two ground stations.

    Args:
        src_gid: Sender.
        dst_gid: Receiver.
        rate_bps: Send rate, counted over wire bytes; the inter-packet gap
            is ``size * 8 / rate`` (perfect pacing).
        packet_bytes: Wire size of each datagram.
        start_s: First transmission time.
        stop_s: No datagrams are sent at or after this time.

    Attributes:
        bytes_received: Payload bytes delivered so far.
        packets_sent / packets_received: Counters.
    """

    def __init__(self, src_gid: int, dst_gid: int, rate_bps: float,
                 packet_bytes: int = DEFAULT_MTU_BYTES,
                 start_s: float = 0.0, stop_s: float = math.inf) -> None:
        super().__init__()
        if rate_bps <= 0.0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if src_gid == dst_gid:
            raise ValueError("source and destination must differ")
        self.src_gid = src_gid
        self.dst_gid = dst_gid
        self.rate_bps = rate_bps
        self.packet_bytes = packet_bytes
        self.start_s = start_s
        self.stop_s = stop_s
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_received = 0
        self._src_node = -1
        self._dst_node = -1
        self._interval_s = packet_bytes * 8.0 / rate_bps

    def _install(self, sim: PacketSimulator) -> None:
        self._src_node = sim.gs_node_id(self.src_gid)
        self._dst_node = sim.gs_node_id(self.dst_gid)
        sim.register_handler(self._dst_node, self.flow_id, self._on_receive)
        sim.scheduler.schedule_at(self.start_s, self._send_next)

    def _send_next(self) -> None:
        assert self.sim is not None
        now = self.sim.now
        if now >= self.stop_s:
            return
        packet = Packet(self.flow_id, self._src_node, self._dst_node,
                        size_bytes=self.packet_bytes, kind="data",
                        seq=self.packets_sent, sent_at_s=now)
        self.packets_sent += 1
        self.sim.send(packet)
        self.sim.scheduler.schedule(self._interval_s, self._send_next)

    def _on_receive(self, packet: Packet) -> None:
        assert self.sim is not None
        self.packets_received += 1
        self.bytes_received += packet.payload_bytes
        tracer = self._tracer
        if tracer.enabled and packet.sent_at_s >= 0.0:
            # One-way delay: UDP's only latency signal (reason marks it
            # as such, distinguishing it from round-trip samples).
            tracer.emit(self.sim.now, FLOW_RTT, flow=self.flow_id,
                        seq=packet.seq, value=self.sim.now - packet.sent_at_s,
                        reason="owd")

    # ------------------------------------------------------------------

    def goodput_bps(self, duration_s: float) -> float:
        """Average payload goodput over ``duration_s`` (bits/second)."""
        if duration_s <= 0.0:
            raise ValueError("duration must be positive")
        return self.bytes_received * 8.0 / duration_s

    @property
    def loss_fraction(self) -> float:
        """Fraction of sent datagrams not (yet) delivered."""
        if self.packets_sent == 0:
            return 0.0
        return 1.0 - self.packets_received / self.packets_sent
