"""A gym-style rate-control environment over the packet simulator.

:class:`RateControlEnv` wraps one agent flow inside a full packet
simulation — constellation motion, routing, queues, optional background
workload and faults (rain included) — as a seeded
step/observe/act loop:

* **observe**: per-decision-interval RTT statistics, delivery rate,
  loss (retransmissions) and fault-drop counts, in-flight bytes, and
  the current window (:class:`Observation`);
* **act**: a multiplier on the agent flow's cwnd (``action_mode
  "cwnd"``) or pacing rate (``"pacing"``), applied for exactly one
  :attr:`EnvSpec.decision_interval_s` of simulated time;
* **deterministic**: the whole rollout is a pure function of
  ``(spec, seed, actions)`` — the seed feeds the background workload
  and any fault schedule through
  :class:`~repro.sweep.spec.NetworkSpec`, and the simulator itself is
  a deterministic DES.  Property-tested in ``tests/test_cc_env.py``.

stdlib + numpy only; the loop follows the gym convention
(``reset() -> obs``, ``step(a) -> (obs, reward, done, info)``) without
depending on gym itself.  The agent flow runs an
:class:`ExternalController` — a registered plug-in (``"external"``)
that holds whatever the environment last set, so a policy trained here
can be replayed inside any workload via the same registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..simulation.packet import DEFAULT_MTU_BYTES
from ..simulation.simulator import LinkConfig, PacketSimulator
from ..sweep.spec import NetworkSpec
from ..traffic.spawner import WorkloadSpawner
from ..transport.tcp import TcpFlow
from .api import CongestionController, register_controller

__all__ = ["EnvSpec", "Observation", "RateControlEnv",
           "ExternalController"]


class ExternalController(CongestionController):
    """A plug-in whose decisions are made *outside* the flow — by a
    :class:`RateControlEnv` (or any policy driving the flow directly).

    Holds the window/pacing the environment last set; the flow's loss
    recovery machinery still runs, but applies no multiplicative
    decrease of its own (the policy sees losses in its observations and
    is expected to react).
    """

    name = "external"

    def __init__(self, paced: bool = False,
                 initial_pacing_rate_bps: float = 1e6) -> None:
        super().__init__()
        self.paced = paced  # instance override of the class attribute
        self._pacing_rate_bps = initial_pacing_rate_bps

    def _on_attach(self) -> None:
        # ssthresh tracks cwnd so slow-start comparisons stay harmless.
        self.flow.ssthresh = self.flow.cwnd

    def on_recovery_exit(self, now_s: float) -> None:
        pass  # keep the externally set window

    def on_timeout(self, now_s: float) -> None:
        pass  # ditto; the policy observes the stall and reacts

    @property
    def pacing_rate_bps(self) -> float:
        return self._pacing_rate_bps

    def set_pacing_rate(self, rate_bps: float) -> None:
        self._pacing_rate_bps = max(rate_bps, 1.0)


register_controller("external", ExternalController)


@dataclass(frozen=True)
class EnvSpec:
    """Frozen recipe of one environment instance.

    Determinism contract: two environments built from equal specs and
    seeds, fed the same action sequence, produce identical observation
    streams (``tests/test_cc_env.py`` property-tests this).

    Args:
        network: The scenario — constellation, stations, ISLs, and any
            faults/rain/background workload baked into the spec.
        src_gid / dst_gid: Endpoints of the agent flow.
        decision_interval_s: Simulated time per :meth:`RateControlEnv.
            step`.
        horizon_s: Episode length; ``step`` returns ``done`` at/after
            this simulated time (or when a finite agent flow completes).
        max_packets: Agent flow size (None: long-running).
        packet_bytes: Wire size of a full data packet.
        action_mode: ``"cwnd"`` (multiplier on the window) or
            ``"pacing"`` (multiplier on the pacing rate).
        initial_cwnd_packets: Agent flow's starting window.
        initial_pacing_rate_bps: Starting rate for ``"pacing"`` mode.
        min_cwnd / max_cwnd: Clamp for the window under ``"cwnd"``.
        gsl_queue_packets / isl_queue_packets: Device queue depths
            (paper defaults when None).
        forwarding_interval_s: Forwarding refresh period.
    """

    network: NetworkSpec
    src_gid: int = 0
    dst_gid: int = 1
    decision_interval_s: float = 0.2
    horizon_s: float = 20.0
    max_packets: Optional[int] = None
    packet_bytes: int = DEFAULT_MTU_BYTES
    action_mode: str = "cwnd"
    initial_cwnd_packets: float = 10.0
    initial_pacing_rate_bps: float = 1e6
    min_cwnd: float = 1.0
    max_cwnd: float = 100_000.0
    gsl_queue_packets: Optional[int] = None
    isl_queue_packets: Optional[int] = None
    forwarding_interval_s: float = 0.1

    def __post_init__(self) -> None:
        if self.action_mode not in ("cwnd", "pacing"):
            raise ValueError(
                f"action_mode must be 'cwnd' or 'pacing', "
                f"got {self.action_mode!r}")
        if self.decision_interval_s <= 0.0:
            raise ValueError("decision interval must be positive")
        if self.horizon_s <= 0.0:
            raise ValueError("horizon must be positive")


@dataclass(frozen=True)
class Observation:
    """What the policy sees after one decision interval."""

    time_s: float
    #: RTT statistics over the interval's samples (NaN if none arrived).
    rtt_last_s: float
    rtt_min_s: float
    rtt_mean_s: float
    #: Acknowledged payload over the interval, as a rate.
    delivery_rate_bps: float
    #: Loss signals over the interval.
    retransmitted_packets: int
    fault_drops: int
    congestion_drops: int
    #: Instantaneous sender state.
    inflight_bytes: int
    cwnd_packets: float
    acked_packets: int
    done: bool


class RateControlEnv:
    """Seeded step/observe/act loop for rate-control policies.

    Usage::

        env = RateControlEnv(spec, seed=7)
        obs = env.reset()
        while not obs.done:
            obs, reward, done, info = env.step(1.25)  # gentle probe up

    The reward is ``power``-flavoured: delivered Mbit/s scaled by
    ``rtt_min/rtt_mean`` (queueing discount), minus ``loss_penalty`` per
    retransmitted Mbit/s — a dense, unit-consistent signal; policies are
    free to ignore it and score themselves on observations.
    """

    def __init__(self, spec: EnvSpec, seed: int = 0,
                 loss_penalty: float = 0.5) -> None:
        self.spec = spec
        self.seed = seed
        self.loss_penalty = loss_penalty
        self.sim: Optional[PacketSimulator] = None
        self.flow: Optional[TcpFlow] = None
        self.controller: Optional[ExternalController] = None
        self.spawner: Optional[WorkloadSpawner] = None
        self._steps = 0
        self._last_una = 0
        self._last_retx = 0
        self._last_rtt_count = 0
        self._last_fault_drops = 0
        self._last_congestion_drops = 0

    # ------------------------------------------------------------------

    def reset(self) -> Observation:
        """(Re)build the simulation from ``(spec, seed)`` and run to the
        agent flow's start; returns the initial observation."""
        spec = self.spec
        network = spec.network.build()
        kwargs: Dict[str, Any] = {}
        if spec.gsl_queue_packets is not None:
            kwargs["gsl_queue_packets"] = spec.gsl_queue_packets
        if spec.isl_queue_packets is not None:
            kwargs["isl_queue_packets"] = spec.isl_queue_packets
        link_config = LinkConfig(**kwargs) if kwargs else None
        self.sim = PacketSimulator(
            network, link_config=link_config,
            forwarding_interval_s=spec.forwarding_interval_s)
        self.controller = ExternalController(
            paced=(spec.action_mode == "pacing"),
            initial_pacing_rate_bps=spec.initial_pacing_rate_bps)
        self.flow = TcpFlow(
            spec.src_gid, spec.dst_gid,
            packet_bytes=spec.packet_bytes,
            max_packets=spec.max_packets,
            initial_cwnd_packets=spec.initial_cwnd_packets,
            controller=self.controller).install(self.sim)
        self.spawner = None
        workload = spec.network.workload
        if workload is not None and not workload.is_empty:
            self.spawner = WorkloadSpawner(
                workload, packet_bytes=spec.packet_bytes).install(self.sim)
        self._steps = 0
        self._last_una = 0
        self._last_retx = 0
        self._last_rtt_count = 0
        self._last_fault_drops = 0
        self._last_congestion_drops = 0
        return self._observe()

    def step(self, action: float) -> Tuple[Observation, float, bool,
                                           Dict[str, Any]]:
        """Apply one multiplier, advance one decision interval.

        Returns ``(observation, reward, done, info)``.
        """
        if self.sim is None or self.flow is None:
            raise RuntimeError("call reset() before step()")
        if not (action > 0.0 and np.isfinite(action)):
            raise ValueError(f"action must be a positive finite "
                             f"multiplier, got {action!r}")
        spec = self.spec
        flow = self.flow
        if spec.action_mode == "cwnd":
            # Takes effect at the next ACK's send opportunity (poking
            # _try_send here would transmit before the flow began).
            flow.cwnd = float(np.clip(flow.cwnd * action,
                                      spec.min_cwnd, spec.max_cwnd))
            flow.ssthresh = flow.cwnd
        else:
            assert self.controller is not None
            self.controller.set_pacing_rate(
                self.controller.pacing_rate_bps * action)
        self._steps += 1
        self.sim.run(self._steps * spec.decision_interval_s)
        obs = self._observe()
        reward = self._reward(obs)
        info = {"steps": self._steps, "snd_una": flow.snd_una,
                "completed_at_s": flow.completed_at_s}
        return obs, reward, obs.done, info

    # ------------------------------------------------------------------

    def _observe(self) -> Observation:
        assert self.sim is not None and self.flow is not None
        sim, flow, spec = self.sim, self.flow, self.spec
        now = sim.now
        _, rtts = flow.rtt_log.as_arrays()
        new_rtts = rtts[self._last_rtt_count:]
        self._last_rtt_count = len(rtts)
        acked = flow.snd_una - self._last_una
        self._last_una = flow.snd_una
        retx = flow.retransmissions - self._last_retx
        self._last_retx = flow.retransmissions
        fault_total = int(getattr(sim.stats, "packets_dropped_fault", 0))
        fault = fault_total - self._last_fault_drops
        self._last_fault_drops = fault_total
        congestion_total = int(getattr(sim.stats,
                                       "packets_dropped_queue", 0))
        congestion = congestion_total - self._last_congestion_drops
        self._last_congestion_drops = congestion_total
        done = (now >= spec.horizon_s - 1e-12
                or flow.completed_at_s is not None)
        return Observation(
            time_s=now,
            rtt_last_s=float(new_rtts[-1]) if len(new_rtts) else float("nan"),
            rtt_min_s=float(new_rtts.min()) if len(new_rtts) else float("nan"),
            rtt_mean_s=(float(new_rtts.mean()) if len(new_rtts)
                        else float("nan")),
            delivery_rate_bps=(acked * flow.payload_bytes * 8.0
                               / spec.decision_interval_s),
            retransmitted_packets=retx,
            fault_drops=fault,
            congestion_drops=congestion,
            inflight_bytes=flow.flight_size * flow.packet_bytes,
            cwnd_packets=flow.cwnd,
            acked_packets=acked,
            done=done)

    def _reward(self, obs: Observation) -> float:
        delivered_mbps = obs.delivery_rate_bps / 1e6
        if (np.isfinite(obs.rtt_mean_s) and obs.rtt_mean_s > 0.0
                and np.isfinite(obs.rtt_min_s)):
            delivered_mbps *= obs.rtt_min_s / obs.rtt_mean_s
        retx_mbps = (obs.retransmitted_packets * self.spec.packet_bytes
                     * 8.0 / self.spec.decision_interval_s) / 1e6
        return delivered_mbps - self.loss_penalty * retx_mbps

    def rollout(self, actions: List[float]) -> List[Observation]:
        """Reset and run a fixed action sequence; the observation
        stream (determinism-contract surface)."""
        observations = [self.reset()]
        for action in actions:
            obs, _, done, _ = self.step(action)
            observations.append(obs)
            if done:
                break
        return observations
