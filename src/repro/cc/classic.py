"""The three classic controllers as plug-ins: NewReno, Vegas, BBR.

These are straight policy ports of the seed flow classes (which hard-coded
each algorithm as a flow subclass); the mechanics —
SACK scoreboard, retransmissions, timers, receiver — stayed behind in
:class:`repro.transport.tcp.TcpFlow`.  The regression gate in
``benchmarks/test_cc_matrix.py`` proves each port bit-identical to its
seed class (``tests/_seed_transport.py``) on scenarios exercising fast
recovery and timeouts; do not "improve" the arithmetic here without
updating that contract.

:data:`CONTROLLERS` maps each controller's name to its class; a flow
names the one it runs and builds it as ``CONTROLLERS[name](flow)``.

The algorithm rationale — why NewReno halves on LEO path shortening, why
Vegas collapses on path lengthening, why BBR's expiring min-RTT filter
does not — is in the :mod:`repro.transport.tcp` module docstring and the
Vegas and BBR class docstrings below.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Optional, Tuple, Type

from ..obs.trace import FLOW_STATE
from .api import CongestionController

__all__ = ["NewRenoController", "VegasController", "BbrController",
           "CONTROLLERS", "controller_class", "STARTUP_GAIN", "DRAIN_GAIN",
           "PROBE_BW_GAINS", "BW_WINDOW_ROUNDS", "MIN_RTT_WINDOW_S"]

#: BBR STARTUP/DRAIN pacing gains (2/ln2 and its inverse).
STARTUP_GAIN = 2.885
DRAIN_GAIN = 1.0 / STARTUP_GAIN

#: BBR PROBE_BW gain cycle.
PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

#: Windows for BBR's two filters.
BW_WINDOW_ROUNDS = 10
MIN_RTT_WINDOW_S = 10.0


class NewRenoController(CongestionController):
    """Loss-based AIMD: slow start, congestion avoidance, halving."""

    name = "newreno"

    def on_ack(self, newly_acked: int, now_s: float) -> None:
        flow = self.flow
        if flow.cwnd < flow.ssthresh:
            flow.cwnd += newly_acked  # slow start
        else:
            flow.cwnd += newly_acked / flow.cwnd  # congestion avoidance

    def on_loss(self, now_s: float) -> None:
        flow = self.flow
        flow.ssthresh = max(flow._pipe() / 2.0, 2.0)
        flow.cwnd = flow.ssthresh

    def on_timeout(self, now_s: float) -> None:
        flow = self.flow
        flow.ssthresh = max(flow.flight_size / 2.0, 2.0)
        flow.cwnd = 1.0


class VegasController(NewRenoController):
    """Delay-based Vegas over a Reno loss-recovery base (fast retransmit
    / RTO, matching how Vegas implementations layer it).

    Paper §4.2 / Fig. 5: Vegas keeps queues nearly empty, but on LEO
    paths it misreads path-change-induced RTT increases as congestion,
    drastically cuts its window, and its throughput collapses.  That
    failure mode needs no special-casing — it falls out of the standard
    Brakmo-Peterson rules:

    * ``BaseRTT`` is the minimum RTT ever observed on the connection;
    * once per RTT, Vegas estimates the backlog it keeps in queues as
      ``diff = cwnd * (RTT - BaseRTT) / RTT`` (in packets);
    * it nudges cwnd to keep ``ALPHA <= diff <= BETA``.

    When satellite motion lengthens the path, ``RTT - BaseRTT`` grows
    with no queueing whatsoever, ``diff`` exceeds ``BETA``, and Vegas
    walks its window down toward the floor — exactly the collapse of
    Fig. 5(b)/(c).  Vegas leaves slow start once ``diff`` exceeds
    ``GAMMA``.
    """

    name = "vegas"
    MIN_CWND = 2.0
    #: Lower and upper backlog targets, slow-start exit threshold
    #: (packets).
    ALPHA = 2.0
    BETA = 4.0
    GAMMA = 1.0

    def __init__(self, flow) -> None:
        super().__init__(flow)
        self.base_rtt_s = math.inf
        self._window_min_rtt_s = math.inf
        self._next_adjust_s: Optional[float] = None
        self._in_vegas_slow_start = True
        self._grow_this_rtt = True  # Vegas doubles every *other* RTT

    def on_rtt_sample(self, rtt_s: float, now_s: float) -> None:
        self.base_rtt_s = min(self.base_rtt_s, rtt_s)
        self._window_min_rtt_s = min(self._window_min_rtt_s, rtt_s)
        if self._next_adjust_s is None:
            self._next_adjust_s = now_s + rtt_s
            return
        if now_s >= self._next_adjust_s:
            self._per_rtt_adjust(self._window_min_rtt_s, now_s)
            self._window_min_rtt_s = math.inf
            self._next_adjust_s = now_s + rtt_s

    def _per_rtt_adjust(self, rtt_s: float, now_s: float) -> None:
        if not math.isfinite(rtt_s) or rtt_s <= 0.0:
            return
        flow = self.flow
        # Estimated packets this flow keeps queued in the network.
        diff = flow.cwnd * (rtt_s - self.base_rtt_s) / rtt_s
        tracer = flow._tracer
        if tracer.enabled:
            # The backlog estimate is the signal Vegas acts on — the
            # quantity that misreads LEO path lengthening as congestion.
            tracer.emit(now_s, FLOW_STATE, flow=flow.flow_id,
                        value=diff, reason="vegas_backlog")
        if self._in_vegas_slow_start:
            if diff > self.GAMMA:
                self._in_vegas_slow_start = False
                flow.ssthresh = min(flow.ssthresh, flow.cwnd)
                if tracer.enabled:
                    tracer.emit(now_s, FLOW_STATE, flow=flow.flow_id,
                                value=flow.cwnd, reason="vegas_exit_ss")
            else:
                self._grow_this_rtt = not self._grow_this_rtt
            return
        if diff < self.ALPHA:
            flow.cwnd += 1.0
        elif diff > self.BETA:
            flow.cwnd = max(flow.cwnd - 1.0, self.MIN_CWND)

    def on_ack(self, newly_acked: int, now_s: float) -> None:
        if self._in_vegas_slow_start:
            if self._grow_this_rtt:
                self.flow.cwnd += newly_acked
            return
        # Congestion avoidance growth is handled per RTT in
        # _per_rtt_adjust; per-ACK growth stays flat.

    def on_loss(self, now_s: float) -> None:
        super().on_loss(now_s)
        self._in_vegas_slow_start = False


class BbrController(CongestionController):
    """Simplified BBR v1: model-based congestion control.

    Paper §4.2: "once a mature implementation of BBR is available,
    evaluating its behavior on LEO networks would be of high interest".
    This controller is that evaluation vehicle:

    * a windowed-max **bottleneck bandwidth** filter over delivery-rate
      samples (:attr:`btl_bw_bps`);
    * a windowed-min **RTT** filter (10 s window, :attr:`rt_prop_s`) —
      crucially, *old samples expire*, so a path-change RTT increase is
      adopted as the new base within one window instead of being misread
      as congestion forever (Vegas' LEO failure mode, Fig. 5);
    * **paced** transmission at ``gain x BtlBw`` with the STARTUP /
      DRAIN / PROBE_BW gain machinery, and ``cwnd`` held at the
      in-flight cap of ``2 x BDP``;
    * loss is repaired through the flow's SACK machinery but does not
      collapse the sending rate (BBR v1 semantics) — so
      reordering-induced spurious "losses" at path changes cost
      retransmissions, not throughput.

    Simplifications vs full BBR: no PROBE_RTT state (the 0.75-gain phase
    of PROBE_BW drains the queue enough to refresh min-RTT in this
    setting), and the delivery rate is estimated from cumulative-ACK
    progress per smoothed RTT rather than per-packet delivered counters.
    """

    name = "bbr"
    paced = True
    MIN_CWND = 4.0

    def __init__(self, flow) -> None:
        super().__init__(flow)
        self._mode = "startup"
        self._pacing_rate_bps = 10.0 * flow.packet_bytes * 8.0
        self._bw_filter: Deque[Tuple[float, float]] = deque()
        self._rtt_filter: Deque[Tuple[float, float]] = deque()
        self._cycle_index = 0
        self._cycle_started_s = 0.0
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._delivered_at_round_start = 0
        self._round_start_s = 0.0
        self._cwnd_before_rto = 0.0

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
            return self.flow.srtt if self.flow.srtt is not None else 0.1
        return min(rtt for _, rtt in self._rtt_filter)

    def _bdp_packets(self) -> float:
        return max(1.0, self.btl_bw_bps * self.rt_prop_s
                   / (self.flow.packet_bytes * 8.0))

    def on_rtt_sample(self, rtt_s: float, now_s: float) -> None:
        flow = self.flow
        self._rtt_filter.append((now_s, rtt_s))
        while self._rtt_filter and \
                self._rtt_filter[0][0] < now_s - MIN_RTT_WINDOW_S:
            self._rtt_filter.popleft()
        # One delivery-rate sample per round trip.
        round_duration = now_s - self._round_start_s
        if round_duration >= (flow.srtt or rtt_s):
            delivered_packets = flow.snd_una - self._delivered_at_round_start
            if delivered_packets > 0 and round_duration > 0:
                bw = (delivered_packets * flow.packet_bytes * 8.0
                      / round_duration)
                self._bw_filter.append((now_s, bw))
                window = BW_WINDOW_ROUNDS * max(flow.srtt or rtt_s, 1e-3)
                while self._bw_filter and \
                        self._bw_filter[0][0] < now_s - window:
                    self._bw_filter.popleft()
                self._advance_state_machine(bw, now_s)
            self._delivered_at_round_start = flow.snd_una
            self._round_start_s = now_s
        self._update_model()

    def _advance_state_machine(self, latest_bw_bps: float,
                               now_s: float) -> None:
        if self._mode == "startup":
            if latest_bw_bps > self._full_bw * 1.25:
                self._full_bw = latest_bw_bps
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= 3:
                    self._set_mode("drain", now_s)
        elif self._mode == "drain":
            if self.flow.flight_size <= self._bdp_packets():
                self._set_mode("probe_bw", now_s)
                self._cycle_index = 0
                self._cycle_started_s = now_s
        elif self._mode == "probe_bw":
            if now_s - self._cycle_started_s >= self.rt_prop_s:
                self._cycle_index = (self._cycle_index + 1) \
                    % len(PROBE_BW_GAINS)
                self._cycle_started_s = now_s

    def _set_mode(self, mode: str, now_s: float) -> None:
        """Transition the BBR state machine, tracing the change."""
        self._mode = mode
        tracer = self.flow._tracer
        if tracer.enabled:
            tracer.emit(now_s, FLOW_STATE, flow=self.flow.flow_id,
                        value=self.btl_bw_bps, reason=f"bbr_{mode}")

    def _pacing_gain(self) -> float:
        if self._mode == "startup":
            return STARTUP_GAIN
        if self._mode == "drain":
            return DRAIN_GAIN
        return PROBE_BW_GAINS[self._cycle_index]

    def _update_model(self) -> None:
        flow = self.flow
        self._pacing_rate_bps = max(
            self._pacing_gain() * self.btl_bw_bps,
            2.0 * flow.packet_bytes * 8.0 / max(self.rt_prop_s, 1e-3))
        # In-flight cap: 2 x BDP (cwnd_gain = 2).
        flow.cwnd = max(self.MIN_CWND, 2.0 * self._bdp_packets())
        flow.ssthresh = flow.cwnd  # keep the flow's bookkeeping harmless

    # ------------------------------------------------------------------
    # Rate-based loss response (BBR ignores loss for its rate model)
    # ------------------------------------------------------------------

    def on_loss(self, now_s: float) -> None:
        pass  # keep the retransmission machinery, skip the decrease

    def on_timeout(self, now_s: float) -> None:
        flow = self.flow
        self._cwnd_before_rto = flow.cwnd
        flow.ssthresh = max(flow.flight_size / 2.0, 2.0)
        flow.cwnd = 1.0

    def post_timeout(self, now_s: float) -> None:
        # Restore a rate-model-friendly window after the flow logged the
        # RFC-style post-RTO cwnd (matches the seed class, which patched
        # cwnd after the base _on_rto had run in full).
        flow = self.flow
        if flow.cwnd < self._cwnd_before_rto:
            flow.cwnd = max(self.MIN_CWND, self._cwnd_before_rto / 2.0)

    def post_ack(self, now_s: float) -> None:
        # Undo any cwnd mutation the flow's recovery/exit logic applied.
        self._update_model()

    @property
    def pacing_rate_bps(self) -> float:
        return self._pacing_rate_bps


#: The controllers a flow may name.  Keys travel across process
#: boundaries (lab cells); values never leave this process.
CONTROLLERS: Dict[str, Type[CongestionController]] = {
    cls.name: cls
    for cls in (NewRenoController, VegasController, BbrController)}


def controller_class(name: str) -> Type[CongestionController]:
    """The controller class ``name`` selects; an unknown name is a
    ``ValueError`` that lists the known ones."""
    if name not in CONTROLLERS:
        raise ValueError(f"unknown controller {name!r}; known: "
                         f"{', '.join(sorted(CONTROLLERS))}")
    return CONTROLLERS[name]
