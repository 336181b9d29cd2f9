"""UDP: constant-rate paced datagram flows.

Paper §3.4: "each GS-pair sends each other constant-rate, paced UDP
traffic at the line rate, and goodput is calculated as the total rate of
network-wide payload arrivals."
"""

from __future__ import annotations

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

    Datagrams are full-size (``DEFAULT_MTU_BYTES`` on the wire), from
    t = 0 until the simulation ends.

    Attributes:
        bytes_received: Payload bytes delivered so far.
        packets_sent / packets_received: Counters.
    """

    def __init__(self, src_gid: int, dst_gid: int, rate_bps: float) -> None:
        super().__init__()
        if rate_bps <= 0.0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if src_gid == dst_gid:
            raise ValueError("source and destination must differ")
        self.src_gid = src_gid
        self.dst_gid = dst_gid
        self.rate_bps = rate_bps
        self.packets_sent = 0
        self.packets_received = 0
        self.bytes_received = 0
        self._src_node = -1
        self._dst_node = -1
        self._interval_s = DEFAULT_MTU_BYTES * 8.0 / rate_bps

    def _install(self, sim: PacketSimulator) -> None:
        self._src_node = sim.gs_node_id(self.src_gid)
        self._dst_node = sim.gs_node_id(self.dst_gid)
        sim.register_handler(self._dst_node, self.flow_id, self._on_receive)
        sim.scheduler.schedule_at(0.0, self._send_next)

    def _send_next(self) -> None:
        assert self.sim is not None
        now = self.sim.now
        packet = Packet(self.flow_id, self._src_node, self._dst_node,
                        size_bytes=DEFAULT_MTU_BYTES, kind="data",
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
