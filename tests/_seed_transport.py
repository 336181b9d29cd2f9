"""Frozen snapshot of the seed (pre-plug-in) TCP flow classes.

This module is the pre-PR-10 transport layer, captured verbatim before
the congestion-control logic was extracted into ``repro.cc`` plug-ins.
It exists for ONE purpose: the bit-identity regression tests run the
refactored flows side by side with these frozen classes on identical
scenarios and require byte-equal cwnd/RTT traces (ISSUE 10 satellite:
"refactored flows produce bit-identical traces to the seed classes").

Do not modernize or de-duplicate this file; it is a fossil on purpose.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# seed copy of repro/transport/tcp.py
# ----------------------------------------------------------------------



import math
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.obs.trace import FLOW_CWND, FLOW_RTT
from repro.simulation.packet import DEFAULT_HEADER_BYTES, DEFAULT_MTU_BYTES, Packet
from repro.simulation.simulator import PacketSimulator
from repro.obs.metrics import TimeSeriesLog
from repro.transport.base import Application


#: Wire size of a pure ACK.
ACK_BYTES = DEFAULT_HEADER_BYTES

#: RFC 6298 parameters.
RTO_MIN_S = 0.2
RTO_MAX_S = 60.0
RTO_INITIAL_S = 1.0

#: FACK/RFC 6675 duplicate threshold.
DUP_THRESHOLD = 3


class SeedTcpNewRenoFlow(Application):
    """A unidirectional TCP flow (sender at src, receiver at dst).

    Args:
        src_gid: Sending ground station.
        dst_gid: Receiving ground station.
        start_s: Connection start time.
        stop_s: The sender stops injecting new data at this time.
        packet_bytes: Wire size of a full data packet (paper: 1500).
        max_packets: Total data packets to send (default: unbounded, a
            "long-running flow").
        initial_cwnd_packets: Initial window (RFC 6928 style, default 10).
        rwnd_packets: Receiver advertised window; caps the usable window.
        delayed_ack_count: ACK every Nth in-order packet (1 disables
            delayed ACKs; 2 is the classic delayed-ACK setting).

    Logs (inspect after :meth:`PacketSimulator.run`):
        * :attr:`cwnd_log` — (time, cwnd in packets) on every change;
        * :attr:`rtt_log` — (time, per-packet RTT) one sample per ACK;
        * :meth:`throughput_series_bps` — receiver goodput per 100 ms bin.
    """

    def __init__(self, src_gid: int, dst_gid: int, start_s: float = 0.0,
                 stop_s: float = math.inf,
                 packet_bytes: int = DEFAULT_MTU_BYTES,
                 max_packets: Optional[int] = None,
                 initial_cwnd_packets: float = 10.0,
                 rwnd_packets: int = 1_000_000,
                 delayed_ack_count: int = 1,
                 throughput_bin_s: float = 0.1) -> None:
        super().__init__()
        if src_gid == dst_gid:
            raise ValueError("source and destination must differ")
        if packet_bytes <= DEFAULT_HEADER_BYTES:
            raise ValueError("packet must be larger than its headers")
        if delayed_ack_count < 1:
            raise ValueError("delayed_ack_count must be >= 1")
        if rwnd_packets < 1:
            raise ValueError("rwnd must be at least one packet")
        self.src_gid = src_gid
        self.dst_gid = dst_gid
        self.start_s = start_s
        self.stop_s = stop_s
        self.packet_bytes = packet_bytes
        self.payload_bytes = packet_bytes - DEFAULT_HEADER_BYTES
        self.max_packets = max_packets if max_packets is not None else 2 ** 62
        self.rwnd_packets = rwnd_packets
        self.delayed_ack_count = delayed_ack_count
        self.throughput_bin_s = throughput_bin_s

        # --- sender state ---
        self.snd_una = 0            # lowest unacknowledged seq
        self.snd_nxt = 0            # next fresh seq
        self.cwnd = float(initial_cwnd_packets)
        self.ssthresh = float(2 ** 30)
        self.dup_acks = 0
        self.in_recovery = False
        self.recover_seq = -1
        self._sacked: Set[int] = set()
        self._lost: Set[int] = set()
        self._retransmitted: Set[int] = set()
        self._highest_sacked = -1
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = RTO_INITIAL_S
        self._timer_epoch = 0
        self._timer_armed = False
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0

        # --- receiver state ---
        self.rcv_nxt = 0
        self._out_of_order: Set[int] = set()
        self._pending_ack = 0
        self._delack_epoch = 0
        self._delack_armed = False
        self._reordered_arrivals = 0
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

    def _is_lost(self, seq: int) -> bool:
        return seq in self._lost

    def _has_loss(self) -> bool:
        return bool(self._lost)

    def _pipe(self) -> int:
        """RFC 6675 pipe: estimated packets still in the network.

        SACKed packets have arrived; lost packets have left the network
        unless their retransmission is still out.
        """
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
        return min(int(self.cwnd), self.rwnd_packets)

    def _try_send(self) -> None:
        """Send retransmissions first, then new data, under pipe < cwnd.

        RFC 6675-style pipe accounting is used at all times: outside loss
        episodes the scoreboard is empty and ``pipe == flight_size``, so
        this reduces to the classic sliding window.  During and after loss
        episodes (including post-RTO slow start) it retransmits
        scoreboard-lost holes before injecting fresh data.
        """
        assert self.sim is not None
        now = self.sim.now
        if now >= self.stop_s:
            return
        window = self._usable_window()
        pipe = self._pipe()
        while pipe < window:
            seq = self._next_retransmission()
            if seq is not None:
                self._transmit(seq, retransmit=True)
                pipe += 1
            elif (self.snd_nxt < self.max_packets
                  and self.snd_nxt - self.snd_una < self.rwnd_packets):
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
            self._update_rto_estimate(sample)
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
                    self.cwnd = self.ssthresh
                    self._retransmitted.clear()
            else:
                self._increase_on_ack(newly_acked)
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

    def _increase_on_ack(self, newly_acked: int) -> None:
        """Window growth outside recovery; Vegas overrides this."""
        if self.cwnd < self.ssthresh:
            self.cwnd += newly_acked  # slow start
        else:
            self.cwnd += newly_acked / self.cwnd  # congestion avoidance

    def _on_rtt_sample(self, rtt_s: float) -> None:
        """Per-ACK RTT hook; Vegas overrides this."""

    def _enter_fast_recovery(self) -> None:
        self.fast_retransmits += 1
        self.ssthresh = max(self._pipe() / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self.recover_seq = self.snd_nxt - 1
        self.in_recovery = True

    # ------------------------------------------------------------------
    # RTO machinery (RFC 6298)
    # ------------------------------------------------------------------

    def _update_rto_estimate(self, sample_s: float) -> None:
        if self.srtt is None:
            self.srtt = sample_s
            self.rttvar = sample_s / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample_s)
            self.srtt = 0.875 * self.srtt + 0.125 * sample_s
        self.rto = min(max(self.srtt + 4.0 * self.rttvar, RTO_MIN_S),
                       RTO_MAX_S)

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
        self.timeouts += 1
        self.ssthresh = max(self.flight_size / 2.0, 2.0)
        self.cwnd = 1.0
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
        self.rto = min(self.rto * 2.0, RTO_MAX_S)  # Karn backoff
        self._timer_epoch += 1
        self._schedule_rto()
        self._log_cwnd()

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
            self._pending_ack += 1
            if (self._pending_ack >= self.delayed_ack_count
                    or self._out_of_order):
                self._send_ack(packet)
            else:
                self._arm_delack(packet)
        elif seq > self.rcv_nxt:
            self._reordered_arrivals += 1
            self._out_of_order.add(seq)
            self._send_ack(packet)  # immediate duplicate ACK
        else:
            self._send_ack(packet)  # stale duplicate; re-ACK

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
        bin_index = int(self.sim.now / self.throughput_bin_s)
        while len(self._bins) <= bin_index:
            self._bins.append(0.0)
        self._bins[bin_index] += packet.payload_bytes

    def _send_ack(self, data_packet: Packet) -> None:
        assert self.sim is not None
        self._pending_ack = 0
        self._delack_epoch += 1
        self._delack_armed = False
        ack = Packet(self.flow_id, self._dst_node, self._src_node,
                     size_bytes=ACK_BYTES, kind="ack",
                     ack=self.rcv_nxt, ts_echo=data_packet.sent_at_s)
        # SACK option: piggybacked as a structured field.
        ack.sack = self._sack_blocks()  # type: ignore[attr-defined]
        self.sim.send(ack)

    def _arm_delack(self, data_packet: Packet) -> None:
        if self._delack_armed:
            return
        assert self.sim is not None
        self._delack_armed = True
        epoch = self._delack_epoch
        self.sim.scheduler.schedule(
            0.2, partial(self._on_delack_timer, epoch, data_packet))

    def _on_delack_timer(self, epoch: int, data_packet: Packet) -> None:
        if epoch != self._delack_epoch:
            return
        if self._pending_ack > 0:
            self._send_ack(data_packet)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def reordered_arrivals(self) -> int:
        """Count of out-of-order data arrivals observed by the receiver."""
        return self._reordered_arrivals

    def throughput_series_bps(self) -> np.ndarray:
        """(B,) receiver payload goodput per bin (bits/second) — the
        quantity of paper Fig. 5(c)."""
        return np.asarray(self._bins) * 8.0 / self.throughput_bin_s

    def goodput_bps(self, duration_s: float) -> float:
        """Average acknowledged-payload goodput over the run."""
        if duration_s <= 0.0:
            raise ValueError("duration must be positive")
        return self.acked_payload_bytes * 8.0 / duration_s

# ----------------------------------------------------------------------
# seed copy of repro/transport/vegas.py
# ----------------------------------------------------------------------



import math
from typing import Optional

from repro.obs.trace import FLOW_STATE




class SeedTcpVegasFlow(SeedTcpNewRenoFlow):
    """A TCP Vegas flow (Brakmo-Peterson parameters by default).

    Args:
        alpha: Lower backlog target (packets).
        beta: Upper backlog target (packets).
        gamma: Slow-start exit threshold (packets).
        (remaining args as in :class:`SeedTcpNewRenoFlow`)
    """

    MIN_CWND = 2.0

    def __init__(self, *args, alpha: float = 2.0, beta: float = 4.0,
                 gamma: float = 1.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 <= alpha <= beta:
            raise ValueError(f"need 0 <= alpha <= beta, got {alpha}, {beta}")
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.base_rtt_s = math.inf
        self._window_min_rtt_s = math.inf
        self._next_adjust_s: Optional[float] = None
        self._in_vegas_slow_start = True
        self._grow_this_rtt = True  # Vegas doubles every *other* RTT

    def _on_rtt_sample(self, rtt_s: float) -> None:
        assert self.sim is not None
        self.base_rtt_s = min(self.base_rtt_s, rtt_s)
        self._window_min_rtt_s = min(self._window_min_rtt_s, rtt_s)
        now = self.sim.now
        if self._next_adjust_s is None:
            self._next_adjust_s = now + rtt_s
            return
        if now >= self._next_adjust_s:
            self._per_rtt_adjust(self._window_min_rtt_s)
            self._window_min_rtt_s = math.inf
            self._next_adjust_s = now + rtt_s

    def _per_rtt_adjust(self, rtt_s: float) -> None:
        if not math.isfinite(rtt_s) or rtt_s <= 0.0:
            return
        # Estimated packets this flow keeps queued in the network.
        diff = self.cwnd * (rtt_s - self.base_rtt_s) / rtt_s
        tracer = self._tracer
        if tracer.enabled:
            assert self.sim is not None
            # The backlog estimate is the signal Vegas acts on — the
            # quantity that misreads LEO path lengthening as congestion.
            tracer.emit(self.sim.now, FLOW_STATE, flow=self.flow_id,
                        value=diff, reason="vegas_backlog")
        if self._in_vegas_slow_start:
            if diff > self.gamma:
                self._in_vegas_slow_start = False
                self.ssthresh = min(self.ssthresh, self.cwnd)
                if tracer.enabled:
                    assert self.sim is not None
                    tracer.emit(self.sim.now, FLOW_STATE, flow=self.flow_id,
                                value=self.cwnd, reason="vegas_exit_ss")
            else:
                self._grow_this_rtt = not self._grow_this_rtt
            return
        if diff < self.alpha:
            self.cwnd += 1.0
        elif diff > self.beta:
            self.cwnd = max(self.cwnd - 1.0, self.MIN_CWND)

    def _increase_on_ack(self, newly_acked: int) -> None:
        if self._in_vegas_slow_start:
            if self._grow_this_rtt:
                self.cwnd += newly_acked
            return
        # Congestion avoidance growth is handled per RTT in
        # _per_rtt_adjust; per-ACK growth stays flat.

    def _enter_fast_recovery(self) -> None:
        super()._enter_fast_recovery()
        self._in_vegas_slow_start = False

# ----------------------------------------------------------------------
# seed copy of repro/transport/bbr.py
# ----------------------------------------------------------------------



import math
from collections import deque
from typing import Deque, Optional, Tuple

from repro.obs.trace import FLOW_STATE
from repro.simulation.simulator import PacketSimulator



#: STARTUP/DRAIN pacing gains (2/ln2 and its inverse).
STARTUP_GAIN = 2.885
DRAIN_GAIN = 1.0 / STARTUP_GAIN

#: PROBE_BW gain cycle.
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

#: Windows for the two filters.
BW_WINDOW_ROUNDS = 10
MIN_RTT_WINDOW_S = 10.0


class SeedTcpBbrFlow(SeedTcpNewRenoFlow):
    """A (simplified) BBR flow between two ground stations.

    Accepts the same arguments as :class:`SeedTcpNewRenoFlow`.  The inherited
    ``cwnd`` is maintained at BBR's in-flight cap (``2 x BtlBw x RTprop``
    in packets); sending is paced rather than window-burst.
    """

    MIN_CWND = 4.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._mode = "startup"
        self._pacing_rate_bps = 10.0 * self.packet_bytes * 8.0  # bootstrap
        self._bw_filter: Deque[Tuple[float, float]] = deque()
        self._rtt_filter: Deque[Tuple[float, float]] = deque()
        self._cycle_index = 0
        self._cycle_started_s = 0.0
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._delivered_at_round_start = 0
        self._round_start_s = 0.0
        self._pacer_armed = False
        self._next_send_s = 0.0

    # ------------------------------------------------------------------
    # Filters and model
    # ------------------------------------------------------------------

    @property
    def btl_bw_bps(self) -> float:
        """Current bottleneck-bandwidth estimate (windowed max)."""
        if not self._bw_filter:
            return self._pacing_rate_bps
        return max(bw for _, bw in self._bw_filter)

    @property
    def rt_prop_s(self) -> float:
        """Current round-trip propagation estimate (windowed min)."""
        if not self._rtt_filter:
            return self.srtt if self.srtt is not None else 0.1
        return min(rtt for _, rtt in self._rtt_filter)

    def _bdp_packets(self) -> float:
        return max(1.0, self.btl_bw_bps * self.rt_prop_s
                   / (self.packet_bytes * 8.0))

    def _on_rtt_sample(self, rtt_s: float) -> None:
        assert self.sim is not None
        now = self.sim.now
        self._rtt_filter.append((now, rtt_s))
        while self._rtt_filter and \
                self._rtt_filter[0][0] < now - MIN_RTT_WINDOW_S:
            self._rtt_filter.popleft()
        # One delivery-rate sample per round trip.
        round_duration = now - self._round_start_s
        if round_duration >= (self.srtt or rtt_s):
            delivered_packets = self.snd_una - self._delivered_at_round_start
            if delivered_packets > 0 and round_duration > 0:
                bw = (delivered_packets * self.packet_bytes * 8.0
                      / round_duration)
                self._bw_filter.append((now, bw))
                window = BW_WINDOW_ROUNDS * max(self.srtt or rtt_s, 1e-3)
                while self._bw_filter and \
                        self._bw_filter[0][0] < now - window:
                    self._bw_filter.popleft()
                self._advance_state_machine(bw)
            self._delivered_at_round_start = self.snd_una
            self._round_start_s = now
        self._update_model()

    def _advance_state_machine(self, latest_bw_bps: float) -> None:
        assert self.sim is not None
        now = self.sim.now
        if self._mode == "startup":
            if latest_bw_bps > self._full_bw * 1.25:
                self._full_bw = latest_bw_bps
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= 3:
                    self._set_mode("drain")
        elif self._mode == "drain":
            if self.flight_size <= self._bdp_packets():
                self._set_mode("probe_bw")
                self._cycle_index = 0
                self._cycle_started_s = now
        elif self._mode == "probe_bw":
            if now - self._cycle_started_s >= self.rt_prop_s:
                self._cycle_index = (self._cycle_index + 1) \
                    % len(PROBE_BW_GAINS)
                self._cycle_started_s = now

    def _set_mode(self, mode: str) -> None:
        """Transition the BBR state machine, tracing the change."""
        self._mode = mode
        tracer = self._tracer
        if tracer.enabled:
            assert self.sim is not None
            tracer.emit(self.sim.now, FLOW_STATE, flow=self.flow_id,
                        value=self.btl_bw_bps, reason=f"bbr_{mode}")

    def _pacing_gain(self) -> float:
        if self._mode == "startup":
            return STARTUP_GAIN
        if self._mode == "drain":
            return DRAIN_GAIN
        return PROBE_BW_GAINS[self._cycle_index]

    def _update_model(self) -> None:
        self._pacing_rate_bps = max(
            self._pacing_gain() * self.btl_bw_bps,
            2.0 * self.packet_bytes * 8.0 / max(self.rt_prop_s, 1e-3))
        # In-flight cap: 2 x BDP (cwnd_gain = 2).
        self.cwnd = max(self.MIN_CWND, 2.0 * self._bdp_packets())
        self.ssthresh = self.cwnd  # keep the base's bookkeeping harmless

    # ------------------------------------------------------------------
    # Rate-based loss response (BBR ignores loss for its rate model)
    # ------------------------------------------------------------------

    def _increase_on_ack(self, newly_acked: int) -> None:
        pass  # the model, not ACK counting, sets cwnd

    def _enter_fast_recovery(self) -> None:
        # Keep the scoreboard/retransmission state machine, skip the
        # multiplicative decrease.
        self.fast_retransmits += 1
        self.recover_seq = self.snd_nxt - 1
        self.in_recovery = True

    def _on_ack(self, packet) -> None:
        super()._on_ack(packet)
        # Undo any cwnd mutation the base recovery/exit logic applied.
        self._update_model()

    def _on_rto(self, epoch: int) -> None:
        cwnd_before = self.cwnd
        super()._on_rto(epoch)
        if self.cwnd < cwnd_before:
            self.cwnd = max(self.MIN_CWND, cwnd_before / 2.0)

    # ------------------------------------------------------------------
    # Pacing
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        assert self.sim is not None
        if self.sim.now >= self.stop_s:
            return
        self._arm_pacer()
        self._arm_rto()

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
            elif (self.snd_nxt < self.max_packets
                  and self.snd_nxt - self.snd_una < self.rwnd_packets):
                self._transmit(self.snd_nxt, retransmit=False)
                self.snd_nxt += 1
                sent = True
        if sent:
            interval = self.packet_bytes * 8.0 / self._pacing_rate_bps
            self._next_send_s = now + interval
            self._arm_pacer()
            self._arm_rto()
        # If nothing was sendable, the pacer re-arms on the next ACK via
        # _try_send.
