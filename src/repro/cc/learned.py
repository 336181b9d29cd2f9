"""A learned congestion controller: a UCB bandit over window multipliers.

The fourth plug-in (after the three classics) and the
reference "adaptive policy" of the rate-control lab.  Deliberately
simple — no ML dependencies, no RNG, fully deterministic:

* a :class:`BanditBrain` runs UCB1 over a discrete set of *arms*, each a
  multiplier on the flow's initial window;
* at a fixed decision interval, the attached :class:`BanditController`
  closes the running interval (reward = goodput minus a retransmission
  penalty, both in Mbit/s), credits the brain, pulls the next arm, and
  pins ``cwnd = initial_cwnd * arm`` until the next decision;
* tie-breaking is by lowest arm index and untried arms are explored in
  index order, so a whole scenario replays bit-identically per seed.

Across a workload the brain is *shared*: every flow the
:class:`~repro.cc.factory.ControllerFlowFactory` spawns updates the same
arm statistics (:meth:`BanditController.make_shared_state`), so short
flows inherit what earlier flows learned — on LEO paths with ample
headroom the bandit converges on aggressive arms and skips the slow-start
ramp that costs NewReno/Vegas their short-flow FCT (and skips BBR's
conservative bootstrap pacing).  Brain state is plain counts and reward
sums, pickled with the flows (one brain object, so it stays shared after
unpickling).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from .api import CongestionController

__all__ = ["BanditBrain", "BanditController", "ARMS"]

#: Window multipliers the bandit chooses between.  The low arm lets it
#: back off toward classic initial-window behaviour under congestion;
#: the high arms are where it wins short-flow FCT on LEO paths whose
#: bandwidth-delay product dwarfs a classic initial window.
ARMS = (2.0, 4.0, 8.0, 16.0)

#: How often a controller closes an interval and re-pulls (seconds).
DECISION_INTERVAL_S = 0.25

#: Mbit/s of reward deducted per Mbit/s retransmitted.
LOSS_WEIGHT = 0.5

#: UCB1 exploration coefficient.
EXPLORATION = 0.5


class BanditBrain:
    """Deterministic UCB1 statistics over a discrete arm set.

    One brain may be shared by many controllers (all flows of a
    scenario); each controller runs its own decision intervals but
    credits rewards here.
    """

    def __init__(self, num_arms: int) -> None:
        if num_arms < 1:
            raise ValueError("need at least one arm")
        self.num_arms = num_arms
        self.counts = [0] * num_arms
        self.totals = [0.0] * num_arms
        self.pulls = 0

    def select(self) -> int:
        """The UCB1 arm choice (untried arms first, in index order;
        value ties break to the lowest index)."""
        for arm in range(self.num_arms):
            if self.counts[arm] == 0:
                return arm
        log_pulls = math.log(self.pulls)
        best_arm = 0
        best_value = -math.inf
        for arm in range(self.num_arms):
            mean = self.totals[arm] / self.counts[arm]
            bonus = math.sqrt(EXPLORATION * log_pulls
                              / self.counts[arm])
            value = mean + bonus
            if value > best_value:
                best_value = value
                best_arm = arm
        return best_arm

    def update(self, arm: int, reward: float) -> None:
        self.counts[arm] += 1
        self.totals[arm] += reward
        self.pulls += 1


class BanditController(CongestionController):
    """Pin cwnd to ``initial_cwnd x arm``, re-choosing the arm (one of
    :data:`ARMS`) by UCB1 every :data:`DECISION_INTERVAL_S`.

    The controller learns through a private :class:`BanditBrain` unless
    a :class:`~repro.cc.factory.ControllerFlowFactory` swaps in the
    scenario's shared one (:meth:`make_shared_state`).
    """

    name = "bandit"

    def __init__(self) -> None:
        super().__init__()
        self.brain = BanditBrain(len(ARMS))
        self._base_cwnd = 0.0
        self._arm: Optional[int] = None
        self._interval_start_s = 0.0
        self._next_decision_s = 0.0
        self._una_at_start = 0
        self._retx_at_start = 0
        self._closed = False

    def _on_attach(self) -> None:
        self._base_cwnd = self.flow.cwnd

    # ------------------------------------------------------------------
    # Decision loop (driven by ACK arrivals; no timers of its own, so
    # an idle flow never wakes the scheduler)
    # ------------------------------------------------------------------

    def post_ack(self, now_s: float) -> None:
        flow = self.flow
        if self._closed:
            return
        if flow.completed_at_s is not None:
            # Credit the final partial interval so fast-finishing arms
            # are rewarded even on flows shorter than one interval.
            if self._arm is not None:
                self._close_interval(now_s)
            self._closed = True
            return
        if self._arm is None:
            self._open_interval(now_s)
        elif now_s >= self._next_decision_s:
            self._close_interval(now_s)
            self._open_interval(now_s)

    def _open_interval(self, now_s: float) -> None:
        flow = self.flow
        self._arm = self.brain.select()
        flow.cwnd = max(1.0, self._base_cwnd * ARMS[self._arm])
        flow.ssthresh = flow.cwnd  # keep the flow's bookkeeping harmless
        self._interval_start_s = now_s
        self._next_decision_s = now_s + DECISION_INTERVAL_S
        self._una_at_start = flow.snd_una
        self._retx_at_start = flow.retransmissions

    def _close_interval(self, now_s: float) -> None:
        flow = self.flow
        elapsed = max(now_s - self._interval_start_s, 1e-9)
        packet_mbits = flow.packet_bytes * 8.0 / 1e6
        goodput = (flow.snd_una - self._una_at_start) \
            * packet_mbits / elapsed
        retx_rate = (flow.retransmissions - self._retx_at_start) \
            * packet_mbits / elapsed
        assert self._arm is not None
        self.brain.update(self._arm, goodput - LOSS_WEIGHT * retx_rate)

    # ------------------------------------------------------------------
    # Event responses: the arm pins the window, losses only feed the
    # reward; recovery/timeouts get deterministic safety valves.
    # ------------------------------------------------------------------

    def on_ack(self, newly_acked: int, now_s: float) -> None:
        pass  # the arm, not ACK counting, sets cwnd

    def on_loss(self, now_s: float) -> None:
        pass  # the retransmission penalty lands in the interval reward

    def on_recovery_exit(self, now_s: float) -> None:
        pass  # keep the pinned window (ssthresh tracks cwnd anyway)

    def on_timeout(self, now_s: float) -> None:
        # Safety valve until the next decision re-pins the window.
        flow = self.flow
        flow.cwnd = max(2.0, flow.cwnd / 2.0)
        flow.ssthresh = flow.cwnd

    @classmethod
    def make_shared_state(cls) -> Dict[str, Any]:
        """One brain for all flows."""
        return {"brain": cls().brain}

