"""The packet: the unit every simulated byte travels in.

Packets are deliberately plain mutable objects with ``__slots__``: the
simulator creates hundreds of thousands of them, so attribute-dict overhead
matters.  Transport protocols stash their header fields directly on the
packet (seq, ack, timestamps); the network layer only reads ``dst_node``
and ``size_bytes``.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["Packet", "DEFAULT_HEADER_BYTES", "DEFAULT_MTU_BYTES"]

#: Combined IP+transport header size assumed throughout (bytes).
DEFAULT_HEADER_BYTES = 40

#: Total packet size used by the paper's experiments (bytes).
DEFAULT_MTU_BYTES = 1500


class Packet:
    """One simulated packet.

    Attributes:
        flow_id: The flow this packet belongs to; the destination node uses
            it to hand the packet to the right application.
        src_node: Originating node id.
        dst_node: Destination node id (a ground station).
        size_bytes: Wire size including headers.
        payload_bytes: Goodput-counted bytes (size minus headers).
        kind: "data", "ack", "ping", or "pong".
        seq: Transport sequence number (packet-granularity).
        ack: Cumulative ACK number carried by ACK packets.
        ts_echo: Timestamp echoed back for RTT measurement.
        sent_at_s: When the transport sent this packet.
        retransmit: Whether this is a retransmission (Karn's rule).
        hops: Incremented at every forwarding step.
    """

    __slots__ = ("flow_id", "src_node", "dst_node",
                 "size_bytes", "payload_bytes", "kind", "seq", "ack",
                 "ts_echo", "sent_at_s", "retransmit", "hops", "sack")

    def __init__(self, flow_id: int, src_node: int, dst_node: int,
                 size_bytes: int, kind: str = "data",
                 seq: int = -1, ack: int = -1,
                 ts_echo: float = -1.0, sent_at_s: float = -1.0,
                 retransmit: bool = False) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.flow_id = flow_id
        self.src_node = src_node
        self.dst_node = dst_node
        self.size_bytes = size_bytes
        self.payload_bytes = max(0, size_bytes - DEFAULT_HEADER_BYTES)
        self.kind = kind
        self.seq = seq
        self.ack = ack
        self.ts_echo = ts_echo
        self.sent_at_s = sent_at_s
        self.retransmit = retransmit
        self.hops = 0
        # SACK blocks piggybacked on ACKs: tuple of (start, end) ranges.
        self.sack: Tuple[Tuple[int, int], ...] = ()

    def __repr__(self) -> str:
        return (f"Packet(flow={self.flow_id}, {self.kind}, "
                f"seq={self.seq}, ack={self.ack}, "
                f"{self.src_node}->{self.dst_node})")
