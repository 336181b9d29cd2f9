"""TCP over LEO paths: reliable delivery with pluggable congestion control.

This reproduces the ns-3 TCP behaviour the paper's §4 experiments rely on
(ns-3 enables SACK by default):

* one cumulative ACK per arriving segment, carrying up to three SACK
  blocks;
* a SACK scoreboard with FACK-style loss marking (a segment is deemed lost
  once three segments above it have been SACKed, or on three duplicate
  ACKs), RFC 6675-style pipe accounting during recovery;
* RFC 6298 retransmission timeouts with Karn backoff, via the shared
  :class:`repro.cc.RttEstimator`.

The *policy* half — what to do with cwnd and the pacing rate on each ACK,
loss, RTT sample, or timeout — is delegated to a
:class:`repro.cc.CongestionController` the flow builds from its name, a
key of :data:`repro.cc.CONTROLLERS` (``TcpFlow(..., controller="bbr")``;
``"newreno"`` by default).
The three classic controllers are bit-identical to the pre-plug-in flow
classes (gated by ``benchmarks/test_cc_matrix.py``).

The key LEO-specific phenomena emerge without special-casing: when a path
shortens, later packets overtake earlier ones, the receiver SACKs the
overtakers, the sender infers loss, and NewReno halves despite zero
actual loss (paper Fig. 4(c)); when a path lengthens, the RTT inflation is
misread by delay-based senders (see
:class:`repro.cc.classic.VegasController`).

Sequence numbers are in packet units (1 seq = 1 MSS), matching how the
paper's plots are scaled ("# of packets").
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from ..cc.api import RttEstimator
from ..cc.classic import controller_class
from ..obs.metrics import TimeSeriesLog
from ..obs.trace import FLOW_CWND, FLOW_RTT
from ..simulation.packet import DEFAULT_HEADER_BYTES, DEFAULT_MTU_BYTES, Packet
from ..simulation.simulator import PacketSimulator
from .base import Application

__all__ = ["TcpFlow"]

#: Wire size of a pure ACK.
ACK_BYTES = DEFAULT_HEADER_BYTES

#: FACK/RFC 6675 duplicate threshold.
DUP_THRESHOLD = 3

#: Initial congestion window (RFC 6928 style), in packets.
INITIAL_CWND_PACKETS = 10.0

#: Width of a receiver goodput bin (:meth:`TcpFlow.throughput_series_bps`).
THROUGHPUT_BIN_S = 0.1


class TcpFlow(Application):
    """A unidirectional TCP flow (sender at src, receiver at dst) driving
    one of the named congestion controllers.

    Args:
        src_gid: Sending ground station.
        dst_gid: Receiving ground station.
        start_s: Connection start time.
        max_packets: Total data packets to send (default: unbounded, a
            "long-running flow").
        controller: A controller name, a key of
            :data:`repro.cc.CONTROLLERS` (``"newreno"``, ``"vegas"``,
            ``"bbr"``); anything else is a ``ValueError``.

    Logs (inspect after :meth:`PacketSimulator.run`):
        * :attr:`cwnd_log` — (time, cwnd in packets) on every change;
        * :attr:`rtt_log` — (time, per-packet RTT) one sample per ACK;
        * :meth:`throughput_series_bps` — receiver goodput per 100 ms bin.
    """

    def __init__(self, src_gid: int, dst_gid: int, start_s: float = 0.0,
                 max_packets: Optional[int] = None,
                 controller: str = "newreno") -> None:
        super().__init__()
        if src_gid == dst_gid:
            raise ValueError("source and destination must differ")
        self.src_gid = src_gid
        self.dst_gid = dst_gid
        self.start_s = start_s
        #: The sender injects no new data from this time on (a detached
        #: service workload sets it to the detach time).
        self.stop_s = math.inf
        #: Wire size of a full data packet (paper: 1500) and its payload.
        self.packet_bytes = DEFAULT_MTU_BYTES
        self.payload_bytes = DEFAULT_MTU_BYTES - DEFAULT_HEADER_BYTES
        self.max_packets = max_packets if max_packets is not None else 2 ** 62

        # --- sender state ---
        self.snd_una = 0            # lowest unacknowledged seq
        self.snd_nxt = 0            # next fresh seq
        self.cwnd = INITIAL_CWND_PACKETS
        self.ssthresh = float(2 ** 30)
        self.dup_acks = 0
        self.in_recovery = False
        self.recover_seq = -1
        self._sacked: Set[int] = set()
        self._lost: Set[int] = set()
        self._retransmitted: Set[int] = set()
        self._highest_sacked = -1
        self._rtt = RttEstimator()
        self._timer_epoch = 0
        self._timer_armed = False
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0

        # --- pacing (used when the controller is rate-based) ---
        self._pacer_armed = False
        self._next_send_s = 0.0

        # --- receiver state ---
        self.rcv_nxt = 0
        self._out_of_order: Set[int] = set()
        self._arrivals_out_of_order = 0
        self._bins: List[float] = []

        # --- completion ---
        #: When the last data packet was cumulatively acked (finite
        #: transfers only; None while running or for unbounded flows).
        self.completed_at_s: Optional[float] = None
        #: Optional callback ``on_complete(now_s)`` fired once, when the
        #: transfer completes (workload spawners hook FCT recording here).
        self.on_complete: Optional[Callable[[float], None]] = None

        # --- logs ---
        self.cwnd_log = TimeSeriesLog()
        self.rtt_log = TimeSeriesLog()

        self._src_node = -1
        self._dst_node = -1

        #: The congestion-control plug-in steering this flow.
        self.controller = controller_class(controller)(self)

    # ------------------------------------------------------------------
    # Shared RTT/RTO estimator (RFC 6298 + Karn backoff)
    # ------------------------------------------------------------------

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT from the shared estimator (None before the
        first sample)."""
        return self._rtt.srtt

    @property
    def rttvar(self) -> float:
        return self._rtt.rttvar

    @property
    def rto(self) -> float:
        """Current retransmission timeout."""
        return self._rtt.rto

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _install(self, sim: PacketSimulator) -> None:
        self._src_node = sim.gs_node_id(self.src_gid)
        self._dst_node = sim.gs_node_id(self.dst_gid)
        sim.register_handler(self._src_node, self.flow_id, self._on_ack)
        sim.register_handler(self._dst_node, self.flow_id, self._on_data)
        sim.scheduler.schedule_at(self.start_s, self._begin)

    def _begin(self) -> None:
        self._log_cwnd()
        self._try_send()

    # ------------------------------------------------------------------
    # Sender: window accounting
    # ------------------------------------------------------------------

    @property
    def flight_size(self) -> int:
        """Packets outstanding (sent but not cumulatively acked)."""
        return self.snd_nxt - self.snd_una

    @property
    def acked_payload_bytes(self) -> int:
        """Cumulatively acknowledged payload — the goodput numerator of
        the paper's Fig. 2 TCP scalability experiment."""
        return self.snd_una * self.payload_bytes

    def _log_cwnd(self) -> None:
        assert self.sim is not None
        now = self.sim.now
        self.cwnd_log.append(now, self.cwnd)
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(now, FLOW_CWND, flow=self.flow_id, value=self.cwnd)

    def _update_loss_marks(self) -> None:
        """FACK-style loss inference from the SACK scoreboard.

        A segment is deemed lost once at least ``DUP_THRESHOLD`` segments
        above it have been SACKed, or (for the head of the window) after
        three duplicate ACKs.
        """
        upper = min(self.snd_nxt, self._highest_sacked - DUP_THRESHOLD + 1)
        for seq in range(self.snd_una, upper):
            if seq not in self._sacked:
                self._lost.add(seq)
        if self.dup_acks >= DUP_THRESHOLD and self.flight_size > 0:
            if self.snd_una not in self._sacked:
                self._lost.add(self.snd_una)

    def _has_loss(self) -> bool:
        return bool(self._lost)

    def _pipe(self) -> int:
        """RFC 6675 pipe: estimated packets still in the network.

        SACKed packets have arrived; lost packets have left the network
        unless their retransmission is still out.
        """
        if not self._sacked and not self._lost:
            return self.snd_nxt - self.snd_una  # empty scoreboard
        pipe = 0
        for seq in range(self.snd_una, self.snd_nxt):
            if seq in self._sacked:
                continue
            if seq in self._lost:
                if seq in self._retransmitted:
                    pipe += 1
                continue
            pipe += 1
        return pipe

    def _usable_window(self) -> int:
        return int(self.cwnd)

    def _try_send(self) -> None:
        """Send retransmissions first, then new data, under pipe < cwnd.

        RFC 6675-style pipe accounting is used at all times: outside loss
        episodes the scoreboard is empty and ``pipe == flight_size``, so
        this reduces to the classic sliding window.  During and after loss
        episodes (including post-RTO slow start) it retransmits
        scoreboard-lost holes before injecting fresh data.

        Rate-based controllers (``controller.paced``) replace the window
        burst with the pacer: one packet per fire at the controller's
        pacing rate, still under the in-flight cap.
        """
        assert self.sim is not None
        if self.sim.now >= self.stop_s:
            return
        if self.controller.paced:
            self._arm_pacer()
            self._arm_rto()
            return
        window = self._usable_window()
        pipe = self._pipe()
        while pipe < window:
            seq = self._next_retransmission()
            if seq is not None:
                self._transmit(seq, retransmit=True)
                pipe += 1
            elif self.snd_nxt < self.max_packets:
                self._transmit(self.snd_nxt, retransmit=False)
                self.snd_nxt += 1
                pipe += 1
            else:
                break
        self._arm_rto()

    def _next_retransmission(self) -> Optional[int]:
        """Lowest lost-and-not-yet-retransmitted sequence, if any."""
        for seq in sorted(self._lost):
            if seq not in self._sacked and seq not in self._retransmitted:
                return seq
        return None

    def _transmit(self, seq: int, retransmit: bool) -> None:
        assert self.sim is not None
        now = self.sim.now
        if retransmit:
            self.retransmissions += 1
            self._retransmitted.add(seq)
        packet = Packet(self.flow_id, self._src_node, self._dst_node,
                        size_bytes=self.packet_bytes, kind="data",
                        seq=seq, sent_at_s=now, retransmit=retransmit)
        self.sim.send(packet)

    # ------------------------------------------------------------------
    # Pacing (rate-based controllers)
    # ------------------------------------------------------------------

    def _arm_pacer(self) -> None:
        if self._pacer_armed:
            return
        assert self.sim is not None
        self._pacer_armed = True
        delay = max(0.0, self._next_send_s - self.sim.now)
        self.sim.scheduler.schedule(delay, self._pacer_fire)

    def _pacer_fire(self) -> None:
        assert self.sim is not None
        self._pacer_armed = False
        now = self.sim.now
        if now >= self.stop_s:
            return
        window = self._usable_window()
        pipe = self._pipe()
        sent = False
        if pipe < window:
            seq = self._next_retransmission()
            if seq is not None:
                self._transmit(seq, retransmit=True)
                sent = True
            elif self.snd_nxt < self.max_packets:
                self._transmit(self.snd_nxt, retransmit=False)
                self.snd_nxt += 1
                sent = True
        if sent:
            rate_bps = self.controller.pacing_rate_bps or 1.0
            interval = self.packet_bytes * 8.0 / rate_bps
            self._next_send_s = now + interval
            self._arm_pacer()
            self._arm_rto()
        # If nothing was sendable, the pacer re-arms on the next ACK via
        # _try_send.

    # ------------------------------------------------------------------
    # Sender: ACK processing
    # ------------------------------------------------------------------

    def _on_ack(self, packet: Packet) -> None:
        assert self.sim is not None
        now = self.sim.now
        ack = packet.ack
        if packet.ts_echo >= 0.0:
            sample = now - packet.ts_echo
            self.rtt_log.append(now, sample)
            tracer = self._tracer
            if tracer.enabled:
                tracer.emit(now, FLOW_RTT, flow=self.flow_id, seq=ack,
                            value=sample)
            self._rtt.observe(sample)
            self._on_rtt_sample(sample)
        # Ingest SACK blocks into the scoreboard.
        sack_blocks: Tuple[Tuple[int, int], ...] = getattr(
            packet, "sack", None) or ()
        for start, end in sack_blocks:
            for seq in range(max(start, self.snd_una), end):
                if seq not in self._sacked:
                    self._sacked.add(seq)
                    if seq > self._highest_sacked:
                        self._highest_sacked = seq

        if ack > self.snd_una:
            newly_acked = ack - self.snd_una
            for seq in range(self.snd_una, ack):
                self._sacked.discard(seq)
                self._lost.discard(seq)
                self._retransmitted.discard(seq)
            self.snd_una = ack
            self.dup_acks = 0
            if self.in_recovery:
                if ack > self.recover_seq:
                    self.in_recovery = False
                    self.controller.on_recovery_exit(now)
                    self._retransmitted.clear()
            else:
                self.controller.on_ack(newly_acked, now)
            self._restart_rto()
            if (self.completed_at_s is None
                    and self.snd_una >= self.max_packets):
                self.completed_at_s = now
                if self.on_complete is not None:
                    self.on_complete(now)
        elif ack == self.snd_una and self.flight_size > 0:
            self.dup_acks += 1

        self._update_loss_marks()
        # Enter fast recovery on fresh loss evidence — but never re-enter
        # for losses within an episode already being handled (the NewReno
        # "recover" guard, which also covers the post-RTO window).
        if (not self.in_recovery and self.flight_size > 0
                and self.snd_una > self.recover_seq and self._has_loss()):
            self._enter_fast_recovery()
        self._log_cwnd()
        self._try_send()
        self.controller.post_ack(now)

    def _on_rtt_sample(self, rtt_s: float) -> None:
        """Per-ACK RTT hook, forwarded to the controller (the shared
        estimator has already folded the sample)."""
        assert self.sim is not None
        self.controller.on_rtt_sample(rtt_s, self.sim.now)

    def _enter_fast_recovery(self) -> None:
        self.fast_retransmits += 1
        self.controller.on_loss(self.sim.now if self.sim else 0.0)
        self.recover_seq = self.snd_nxt - 1
        self.in_recovery = True

    # ------------------------------------------------------------------
    # RTO machinery (RFC 6298)
    # ------------------------------------------------------------------

    def _arm_rto(self) -> None:
        if self._timer_armed or self.flight_size == 0:
            return
        self._schedule_rto()

    def _restart_rto(self) -> None:
        self._timer_epoch += 1
        self._timer_armed = False
        if self.flight_size > 0:
            self._schedule_rto()

    def _schedule_rto(self) -> None:
        assert self.sim is not None
        self._timer_armed = True
        epoch = self._timer_epoch
        self.sim.scheduler.schedule(self.rto, partial(self._on_rto, epoch))

    def _on_rto(self, epoch: int) -> None:
        if epoch != self._timer_epoch:
            return  # superseded by a restart
        self._timer_armed = False
        if self.flight_size == 0:
            return
        now = self.sim.now if self.sim else 0.0
        self.timeouts += 1
        self.controller.on_timeout(now)
        self.dup_acks = 0
        self.in_recovery = False
        # Losses up to snd_nxt now belong to this episode; do not trigger a
        # fresh fast-recovery halving for them.
        self.recover_seq = self.snd_nxt - 1
        # RFC 6675 post-RTO: everything outstanding and un-SACKed is
        # presumed lost, and retransmission bookkeeping is invalidated.
        for seq in range(self.snd_una, self.snd_nxt):
            if seq not in self._sacked:
                self._lost.add(seq)
        self._retransmitted.clear()
        self._transmit(self.snd_una, retransmit=True)
        self._rtt.backoff()  # Karn
        self._timer_epoch += 1
        self._schedule_rto()
        self._log_cwnd()
        self.controller.post_timeout(now)

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------

    def _on_data(self, packet: Packet) -> None:
        assert self.sim is not None
        self._record_delivery(packet)
        seq = packet.seq
        if seq == self.rcv_nxt:
            self.rcv_nxt += 1
            while self.rcv_nxt in self._out_of_order:
                self._out_of_order.discard(self.rcv_nxt)
                self.rcv_nxt += 1
        elif seq > self.rcv_nxt:
            self._arrivals_out_of_order += 1
            self._out_of_order.add(seq)
        # Every segment is acknowledged at once: an out-of-order one with
        # a duplicate ACK, a stale one with a re-ACK.
        self._send_ack(packet)

    def _sack_blocks(self) -> Tuple[Tuple[int, int], ...]:
        """Up to three lowest contiguous SACK ranges above rcv_nxt."""
        if not self._out_of_order:
            return ()
        blocks: List[Tuple[int, int]] = []
        sorted_seqs = sorted(self._out_of_order)
        start = prev = sorted_seqs[0]
        for seq in sorted_seqs[1:]:
            if seq == prev + 1:
                prev = seq
                continue
            blocks.append((start, prev + 1))
            if len(blocks) == 3:
                return tuple(blocks)
            start = prev = seq
        blocks.append((start, prev + 1))
        return tuple(blocks[:3])

    def _record_delivery(self, packet: Packet) -> None:
        assert self.sim is not None
        bin_index = int(self.sim.now / THROUGHPUT_BIN_S)
        while len(self._bins) <= bin_index:
            self._bins.append(0.0)
        self._bins[bin_index] += packet.payload_bytes

    def _send_ack(self, data_packet: Packet) -> None:
        assert self.sim is not None
        ack = Packet(self.flow_id, self._dst_node, self._src_node,
                     size_bytes=ACK_BYTES, kind="ack",
                     ack=self.rcv_nxt, ts_echo=data_packet.sent_at_s)
        # SACK option: piggybacked as a structured field.
        ack.sack = self._sack_blocks()  # type: ignore[attr-defined]
        self.sim.send(ack)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def reordered_arrivals(self) -> int:
        """Count of out-of-order data arrivals observed by the receiver."""
        return self._arrivals_out_of_order

    def throughput_series_bps(self) -> np.ndarray:
        """(B,) receiver payload goodput per bin (bits/second) — the
        quantity of paper Fig. 5(c)."""
        return np.asarray(self._bins) * 8.0 / THROUGHPUT_BIN_S

    def goodput_bps(self, duration_s: float) -> float:
        """Average acknowledged-payload goodput over the run."""
        if duration_s <= 0.0:
            raise ValueError("duration must be positive")
        return self.acked_payload_bytes * 8.0 / duration_s
