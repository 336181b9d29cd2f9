"""Small statistics shared by the harness, the layer table and compare.py."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

import numpy as np

#: A percentile is reported only while this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], percent: float) -> Optional[float]:
    """The ``percent``-th percentile; None without samples, and for a
    tail percentile (above the median) when fewer than
    ``MIN_SAMPLES_BEYOND`` samples lie beyond it — p90 needs 100 samples,
    fewer would make the tail a guess."""
    count = len(values)
    if count == 0 or (percent > 50.0 and count * (100.0 - percent)
                      < MIN_SAMPLES_BEYOND * 100.0):
        return None
    return float(np.percentile(np.asarray(values, dtype=float), percent))


def percentile_ms(seconds: Sequence[float], percent: float) -> Optional[float]:
    """:func:`percentile` of durations given in seconds, in milliseconds."""
    value = percentile(seconds, percent)
    return None if value is None else value * 1e3


def quartile_spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile as a share of the
    median — the run-to-run spread the regression bounds are judged
    against.  None below two samples or for a zero median."""
    if len(values) < 2:
        return None
    first, median, third = statistics.quantiles(values, n=4)
    if median == 0:
        return None
    return abs(third - first) / abs(median)
