"""The congestion-control plug-in API.

Paper §4.2 shows congestion control behaving *qualitatively* differently
over LEO paths (NewReno underutilizes long fat links, Vegas misreads
orbital RTT swings as congestion) and explicitly calls for evaluating
newer algorithms.  The transport layer therefore treats the congestion
controller as a swappable experiment axis rather than a class hierarchy:

* :class:`CongestionController` is the formal interface — per-ACK /
  loss / timeout / RTT-sample hooks in, cwnd / pacing-rate decisions
  out; controllers are plain objects, one per flow;
* a flow names its controller: :data:`repro.cc.classic.CONTROLLERS`
  maps the three names to their classes, so controller choices travel
  across process boundaries as strings;
* :class:`RttEstimator` is the one shared RFC 6298 srtt/rttvar/RTO
  estimator (with Karn-style exponential backoff) that every controller
  rides on — previously duplicated knowledge of the NewReno base class.

The generic :class:`repro.transport.tcp.TcpFlow` owns the *mechanics*
(SACK scoreboard, retransmission machinery, receiver, timers); the
controller owns the *policy* (what cwnd/pacing to run after each event).
Controllers mutate ``flow.cwnd`` / ``flow.ssthresh`` directly — the flow
is the single source of truth the window accounting and the cwnd log
read from.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "CongestionController", "RttEstimator",
    "RTO_MIN_S", "RTO_MAX_S", "RTO_INITIAL_S",
]

#: RFC 6298 parameters (shared by every controller's estimator).
RTO_MIN_S = 0.2
RTO_MAX_S = 60.0
RTO_INITIAL_S = 1.0


class RttEstimator:
    """RFC 6298 smoothed-RTT / RTO estimation with Karn backoff.

    One instance lives on every :class:`~repro.transport.tcp.TcpFlow`;
    controllers and the flow's RTO machinery read the same ``srtt`` /
    ``rttvar`` / ``rto`` rather than keeping private copies (the seed
    classes duplicated this logic through inheritance).

    Karn's rule in this simulator: samples are always unambiguous
    (ACKs echo the *specific* transmission's send timestamp), so the
    sampling half is implicit; the backoff half —
    exponential RTO doubling on timeout, never below the updated
    estimate — is :meth:`backoff`.
    """

    __slots__ = ("srtt", "rttvar", "rto")

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = RTO_INITIAL_S

    def observe(self, sample_s: float) -> None:
        """Fold one RTT sample into srtt/rttvar and recompute the RTO."""
        if self.srtt is None:
            self.srtt = sample_s
            self.rttvar = sample_s / 2.0
        else:
            self.rttvar = (0.75 * self.rttvar
                           + 0.25 * abs(self.srtt - sample_s))
            self.srtt = 0.875 * self.srtt + 0.125 * sample_s
        self.rto = min(max(self.srtt + 4.0 * self.rttvar, RTO_MIN_S),
                       RTO_MAX_S)

    def backoff(self) -> None:
        """Karn-style exponential backoff after a retransmission timeout."""
        self.rto = min(self.rto * 2.0, RTO_MAX_S)


class CongestionController:
    """Base class of congestion-control plug-ins.

    Lifecycle: a flow builds its own controller as ``cls(flow)`` and
    calls its event hooks for the flow's lifetime.  The controller
    expresses its decisions by mutating ``flow.cwnd`` and
    ``flow.ssthresh`` (window-based control) and/or by returning a
    rate from :attr:`pacing_rate_bps` with :attr:`paced` True
    (rate-based control, e.g. BBR).

    Hook call points (see :class:`repro.transport.tcp.TcpFlow`):

    * :meth:`on_rtt_sample` — every ACK carrying a timestamp echo,
      *after* the shared :class:`RttEstimator` has folded the sample;
    * :meth:`on_ack` — cumulative progress outside loss recovery;
    * :meth:`on_loss` — entering fast recovery (scoreboard inferred a
      loss); the flow has already done the recovery bookkeeping;
    * :meth:`on_recovery_exit` — the recovery point was cumulatively
      ACKed;
    * :meth:`on_timeout` — a retransmission timeout fired (with
      :meth:`post_timeout` after the flow's RTO bookkeeping finished);
    * :meth:`post_ack` — end of ACK processing, after transmission
      opportunities were taken (model-based controllers refresh their
      cwnd/pacing decisions here).

    Subclasses take the flow as their one constructor argument; the
    flow's fields (packet size, initial cwnd) are set by then.
    """

    #: Registry key; subclasses override.
    name = "base"
    #: Rate-based controllers set True: the flow paces single packets at
    #: :attr:`pacing_rate_bps` instead of window-bursting.
    paced = False

    def __init__(self, flow) -> None:
        self.flow = flow

    # ------------------------------------------------------------------
    # Event hooks (policy in)
    # ------------------------------------------------------------------

    def on_rtt_sample(self, rtt_s: float, now_s: float) -> None:
        """An RTT sample arrived (estimator already updated)."""

    def on_ack(self, newly_acked: int, now_s: float) -> None:
        """Cumulative ACK progress of ``newly_acked`` packets outside
        recovery; grow (or hold) the window here."""

    def on_loss(self, now_s: float) -> None:
        """The scoreboard inferred a loss and the flow entered fast
        recovery; apply the multiplicative-decrease decision here."""

    def on_recovery_exit(self, now_s: float) -> None:
        """Fast recovery completed (the recovery point was ACKed)."""
        flow = self.flow
        flow.cwnd = flow.ssthresh

    def on_timeout(self, now_s: float) -> None:
        """A retransmission timeout fired; set the post-RTO window."""

    def post_timeout(self, now_s: float) -> None:
        """End of RTO processing, after the flow logged the post-RTO
        window (rate-based controllers patch cwnd back up here)."""

    def post_ack(self, now_s: float) -> None:
        """End of ACK processing (after sends); refresh model decisions."""

    # ------------------------------------------------------------------
    # Decisions out
    # ------------------------------------------------------------------

    @property
    def pacing_rate_bps(self) -> Optional[float]:
        """Current pacing rate; only meaningful when :attr:`paced`."""
        return None

