"""Ping: periodic RTT probing between two ground stations.

Paper §4.1: "For each source-destination pair, the source sends the
destination a ping every 1 ms, and logs the response time."  Pings that
have not returned by the end of the measurement are reported with an
invalid RTT (the paper plots them as 0).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from ..obs.trace import FLOW_RTT
from ..simulation.packet import Packet
from ..simulation.simulator import PacketSimulator
from .base import Application

__all__ = ["PingSession"]

#: Wire size of a ping/pong packet (ICMP echo scale).
PING_PACKET_BYTES = 64


class PingSession(Application):
    """Bidirectional echo session measuring per-probe RTTs.

    Args:
        src_gid: Pinging ground station.
        dst_gid: Echoing ground station.
        interval_s: Probe period (paper uses 1 ms).

    Probes go out from t = 0 until the simulation ends.  After the
    simulation, :attr:`send_times_s` and :attr:`rtts_s` hold one entry
    per probe; unanswered probes have ``rtt = nan``.
    """

    def __init__(self, src_gid: int, dst_gid: int,
                 interval_s: float = 0.001) -> None:
        super().__init__()
        if interval_s <= 0.0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        if src_gid == dst_gid:
            raise ValueError("source and destination must differ")
        self.src_gid = src_gid
        self.dst_gid = dst_gid
        self.interval_s = interval_s
        self._send_times: List[float] = []
        self._rtts: List[float] = []
        self._next_seq = 0
        self._src_node = -1
        self._dst_node = -1

    # ------------------------------------------------------------------

    def _install(self, sim: PacketSimulator) -> None:
        self._src_node = sim.gs_node_id(self.src_gid)
        self._dst_node = sim.gs_node_id(self.dst_gid)
        sim.register_handler(self._src_node, self.flow_id, self._on_pong)
        sim.register_handler(self._dst_node, self.flow_id, self._on_ping)
        sim.scheduler.schedule_at(0.0, self._send_probe)

    def _send_probe(self) -> None:
        assert self.sim is not None
        now = self.sim.now
        seq = self._next_seq
        self._next_seq += 1
        self._send_times.append(now)
        self._rtts.append(math.nan)
        packet = Packet(self.flow_id, self._src_node, self._dst_node,
                        size_bytes=PING_PACKET_BYTES, kind="ping",
                        seq=seq, sent_at_s=now)
        self.sim.send(packet)
        self.sim.scheduler.schedule(self.interval_s, self._send_probe)

    def _on_ping(self, packet: Packet) -> None:
        assert self.sim is not None
        pong = Packet(self.flow_id, self._dst_node, self._src_node,
                      size_bytes=PING_PACKET_BYTES, kind="pong",
                      seq=packet.seq, ts_echo=packet.sent_at_s)
        self.sim.send(pong)

    def _on_pong(self, packet: Packet) -> None:
        assert self.sim is not None
        rtt = self.sim.now - packet.ts_echo
        self._rtts[packet.seq] = rtt
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, FLOW_RTT, flow=self.flow_id,
                        seq=packet.seq, value=rtt)

    # ------------------------------------------------------------------

    @property
    def send_times_s(self) -> np.ndarray:
        """(P,) probe transmit times."""
        return np.asarray(self._send_times)

    @property
    def rtts_s(self) -> np.ndarray:
        """(P,) measured RTTs; nan where no response arrived (in time)."""
        return np.asarray(self._rtts)

    def answered(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, rtts) of answered probes only."""
        times = self.send_times_s
        rtts = self.rtts_s
        mask = ~np.isnan(rtts)
        return times[mask], rtts[mask]
