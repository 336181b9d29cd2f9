"""Periodic sampling probes: turning counters into proper time series.

The packet simulator's devices keep cumulative counters (busy time, bytes
sent) and instantaneous state (queue depth).  A :class:`SimulatorProbe`
rides the simulation's own event queue, waking every ``interval_s`` of
*simulated* time and recording, per tracked device, into a
:class:`~repro.obs.metrics.MetricsRegistry`:

* ``link.<name>.queue_depth`` — packets waiting at the sample instant;
* ``link.<name>.utilization`` — busy-time fraction over the last interval;
* ``link.<name>.throughput_bps`` — wire bits sent over the last interval;

plus ``scheduler.events_per_s`` (simulated-event rate per simulated
second) and ``scheduler.queue_len`` (pending events).  Device names are
the simulator's own (``isl-<a>-<b>``, ``gsl-<node>``), which is what lets
:func:`repro.viz.utilization_map.utilization_map_from_registry` render a
Fig. 14/15-style map straight from the registry.

Only devices that have shown activity (a sent packet or a non-empty
queue) are tracked — on a full constellation, recording every idle
device would dominate memory.  Once a device becomes active it is
sampled at every subsequent interval, so each series is regular from its
first sample on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .metrics import MetricsRegistry

if TYPE_CHECKING:  # avoid a runtime repro.simulation dependency
    from ..simulation.simulator import PacketSimulator

__all__ = ["SimulatorProbe", "isl_utilization_from_registry"]


class SimulatorProbe:
    """Samples a :class:`PacketSimulator`'s devices into a registry.

    Args:
        sim: The simulator to observe.
        registry: Destination registry (one is created if omitted).
        interval_s: Sampling period in simulated seconds.

    Call :meth:`start` before (or during) ``sim.run``; sampling stops
    with the simulation (probe events beyond ``until_s`` never fire).
    """

    def __init__(self, sim: "PacketSimulator",
                 registry: Optional[MetricsRegistry] = None,
                 interval_s: float = 1.0) -> None:
        if interval_s <= 0.0:
            raise ValueError(
                f"sample interval must be positive, got {interval_s}")
        self.sim = sim
        self.registry = registry if registry is not None else MetricsRegistry()
        self.interval_s = interval_s
        #: (name, device) pairs eligible for tracking.
        self._devices = [(device.name, device)
                         for device in sim.iter_devices()]
        # Cumulative-counter baselines per tracked device name.
        self._last: Dict[str, Tuple[float, int]] = {}
        self._tracked: Dict[str, bool] = {}
        self._last_events = 0
        self.samples_taken = 0
        self.sample_times_s: List[float] = []
        self._started = False

    def start(self) -> "SimulatorProbe":
        """Schedule periodic sampling on the simulator's event queue."""
        if self._started:
            raise RuntimeError("probe already started")
        self._started = True
        self._last_events = self.sim.scheduler.events_processed
        self.sim.scheduler.schedule(self.interval_s, self._sample)
        return self

    # ------------------------------------------------------------------

    def _should_track(self, name: str, device) -> bool:
        if self._tracked.get(name):
            return True
        stats = device.stats
        active = (stats.packets_sent > 0 or stats.packets_dropped > 0
                  or stats.packets_dropped_fault > 0
                  or device.queue_length > 0 or device.is_busy)
        if active:
            self._tracked[name] = True
        return active

    def _sample(self) -> None:
        registry = self.registry
        now = self.sim.scheduler.now
        interval = self.interval_s
        self.samples_taken += 1
        self.sample_times_s.append(now)
        for name, device in self._devices:
            if not self._should_track(name, device):
                continue
            stats = device.stats
            # Pro-rated busy time: an in-flight serialization contributes
            # only its elapsed fraction, so interval utilization never
            # exceeds 1 from a packet spanning the sample boundary.
            busy, sent = device.busy_time_s(now), stats.bytes_sent
            last_busy, last_sent = self._last.get(name, (0.0, 0))
            self._last[name] = (busy, sent)
            prefix = f"link.{name}."
            registry.series(prefix + "queue_depth").append(
                now, float(device.queue_length))
            registry.series(prefix + "utilization").append(
                now, (busy - last_busy) / interval)
            registry.series(prefix + "throughput_bps").append(
                now, (sent - last_sent) * 8.0 / interval)
        faults = self.sim.network.fault_view
        if faults is not None:
            # The faults.* family: how many schedule events are active
            # and the cumulative injected-drop count, sampled alongside
            # the link series so degradation windows line up.
            registry.series("faults.active_events").append(
                now, float(len(faults.active_at(now))))
            registry.series("faults.packets_dropped").append(
                now, float(self.sim.stats.packets_dropped_fault))
        scheduler = self.sim.scheduler
        events = scheduler.events_processed
        registry.series("scheduler.events_per_s").append(
            now, (events - self._last_events) / interval)
        registry.series("scheduler.queue_len").append(
            now, float(len(scheduler)))
        self._last_events = events
        scheduler.schedule(interval, self._sample)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def isl_utilization(self, time_s: Optional[float] = None
                        ) -> Dict[Tuple[int, int], float]:
        """Directed ISL load fractions at (or just before) ``time_s``.

        Defaults to the latest sample.  The return value plugs straight
        into :func:`repro.viz.utilization_map.utilization_map`.
        """
        return isl_utilization_from_registry(self.registry, time_s)


def isl_utilization_from_registry(registry: MetricsRegistry,
                                  time_s: Optional[float] = None
                                  ) -> Dict[Tuple[int, int], float]:
    """Directed ISL load fractions from sampled ``link.isl-*`` series.

    Reads the ``link.isl-<a>-<b>.utilization`` series a
    :class:`SimulatorProbe` records and returns the value at (or just
    before) ``time_s`` per directed ISL — the latest sample when None.
    """
    result: Dict[Tuple[int, int], float] = {}
    for name in registry.series_names(prefix="link.isl-",
                                      suffix=".utilization"):
        series = registry.series_logs[name]
        value = _value_at(series, time_s)
        if value is None:
            continue
        # link.isl-<a>-<b>.utilization
        _, a, b = name[len("link."):-len(".utilization")].split("-")
        result[(int(a), int(b))] = value
    return result


def _value_at(series, time_s: Optional[float]) -> Optional[float]:
    """Latest sample at or before ``time_s`` (last sample when None)."""
    if len(series) == 0:
        return None
    if time_s is None:
        return series.values[-1]
    import bisect
    index = bisect.bisect_right(series.times_s, time_s) - 1
    if index < 0:
        return None
    return series.values[index]
