"""Metrics primitives: counters, gauges, histograms, time series.

A :class:`MetricsRegistry` is the single sink a run's instruments write
into — periodic sampling probes (:mod:`repro.obs.probes`), the fluid
engines, and anything else that wants its numbers in the run report.
Instruments are get-or-create by name, so decoupled subsystems can share
one registry without coordination.

:class:`TimeSeriesLog` lives here (extracted from ``repro.transport``);
the transport package re-exports it for backward compatibility.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "TimeSeriesLog",
           "MetricsRegistry", "DEFAULT_BUCKETS", "EXACT_QUANTILE_SAMPLES"]

#: Default histogram bucket upper bounds (log-spaced, seconds-friendly).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0)

#: Histograms keep raw samples up to this count so small-sample
#: quantiles are exact (nearest-rank); past it they fall back to
#: bucket-resolution quantiles with O(buckets) memory.
EXACT_QUANTILE_SAMPLES = 256


class TimeSeriesLog:
    """An append-only (time, value) log with numpy export.

    Used for congestion windows, RTT samples, rate measurements, and the
    sampled per-link series of :mod:`repro.obs.probes`.
    """

    def __init__(self) -> None:
        self._times: List[float] = []
        self._values: List[float] = []

    def append(self, time_s: float, value: float) -> None:
        self._times.append(time_s)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times_s(self) -> List[float]:
        return self._times

    @property
    def values(self) -> List[float]:
        return self._values

    def as_arrays(self) -> Tuple["np.ndarray", "np.ndarray"]:
        """The log as ``(times, values)`` numpy arrays."""
        import numpy as np
        return np.asarray(self._times), np.asarray(self._values)

    def as_dict(self) -> Dict[str, List[float]]:
        """JSON-friendly form."""
        return {"times_s": list(self._times), "values": list(self._values)}


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError(f"counter increments must be >= 0, "
                             f"got {amount}")
        self.value += amount


class Gauge:
    """A value that can move either way (queue depth, mode, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram with running sum/min/max.

    Quantiles are *exact* (nearest-rank over retained raw samples) while
    the sample count stays within :data:`EXACT_QUANTILE_SAMPLES`; beyond
    that the raw samples are discarded and quantiles degrade to bucket
    resolution, keeping memory O(buckets) on hot paths.

    Args:
        name: Instrument name.
        buckets: Ascending upper bounds; an implicit +inf bucket catches
            the overflow.
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum",
                 "min", "max", "_samples")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and ascending")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: Optional[List[float]] = []

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        samples = self._samples
        if samples is not None:
            if self.count <= EXACT_QUANTILE_SAMPLES:
                samples.append(value)
            else:
                self._samples = None

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def exact(self) -> bool:
        """Whether :meth:`quantile` is still exact (small sample)."""
        return self._samples is not None

    def quantile(self, q: float) -> float:
        """The q-quantile of the observed values.

        Exact nearest-rank while the sample count is within
        :data:`EXACT_QUANTILE_SAMPLES`; bucket-resolution (upper bound
        of the q-bucket) afterwards.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        samples = self._samples
        if samples is not None:
            ordered = sorted(samples)
            rank = max(1, math.ceil(q * len(ordered)))
            return ordered[rank - 1]
        target = q * self.count
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target:
                return (self.bounds[i] if i < len(self.bounds)
                        else self.max)
        return self.max

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "exact_quantiles": self.exact,
            "p50": self.quantile(0.5) if self.count else None,
            "p99": self.quantile(0.99) if self.count else None,
            "buckets": {
                (str(bound) if i < len(self.bounds) else "+inf"): count
                for i, (bound, count) in enumerate(
                    zip(self.bounds + (math.inf,), self.counts))
            },
        }


class MetricsRegistry:
    """Named instruments of one run, get-or-create by name.

    Example::

        registry = MetricsRegistry()
        registry.counter("drops").inc()
        registry.series("link.isl-0-1.queue_depth").append(1.0, 17)
        registry.to_json("metrics.json")
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeriesLog] = {}
        #: name -> instrument kind; one name binds to exactly one kind.
        self._kinds: Dict[str, str] = {}

    def _claim(self, name: str, kind: str) -> None:
        bound = self._kinds.get(name)
        if bound is None:
            self._kinds[name] = kind
        elif bound != kind:
            raise TypeError(f"metric {name!r} is already a {bound}, "
                            f"cannot reuse it as a {kind}")

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._claim(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._claim(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            self._claim(name, "histogram")
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    def series(self, name: str) -> TimeSeriesLog:
        instrument = self._series.get(name)
        if instrument is None:
            self._claim(name, "series")
            instrument = self._series[name] = TimeSeriesLog()
        return instrument

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------

    @property
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    @property
    def series_logs(self) -> Dict[str, TimeSeriesLog]:
        return dict(self._series)

    def series_names(self, prefix: str = "",
                     suffix: str = "") -> List[str]:
        """Registered series names matching a prefix/suffix."""
        return sorted(name for name in self._series
                      if name.startswith(prefix) and name.endswith(suffix))

    def as_dict(self, include_series: bool = True) -> Dict[str, Any]:
        """The whole registry as a JSON-serializable dict."""
        payload: Dict[str, Any] = {
            "counters": {name: c.value for name, c in self._counters.items()},
            "gauges": {name: g.value for name, g in self._gauges.items()},
            "histograms": {name: h.as_dict()
                           for name, h in self._histograms.items()},
        }
        if include_series:
            payload["series"] = {name: log.as_dict()
                                 for name, log in self._series.items()}
        return payload

    def to_json(self, path: str, include_series: bool = True,
                indent: Optional[int] = 1) -> None:
        """Dump the registry to a JSON file."""
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.as_dict(include_series=include_series), stream,
                      indent=indent)
            stream.write("\n")
