"""Discrete-event scheduling core.

A minimal, fast event queue in the style of ns-3's ``Simulator``: events are
``(time, insertion-order)``-ordered callbacks.  Insertion order breaks ties
so same-time events run FIFO, which keeps packet orderings deterministic.

A pending event is one flat record ``(time, seq, fn, a, b)``: :meth:`run`
calls ``fn(a, b)``, or ``fn()`` when ``a`` is ``None`` (a plain timer).
The per-packet events carry their ``(packet, to_node)`` as record fields
rather than inside a closure, and every field pickles, because the queue
is part of a :mod:`repro.service` checkpoint.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["EventScheduler"]


class EventScheduler:
    """A discrete-event clock and priority queue.

    Example:
        >>> sched = EventScheduler()
        >>> fired = []
        >>> sched.schedule(2.0, lambda: fired.append(sched.now))
        >>> sched.schedule(1.0, lambda: fired.append(sched.now))
        >>> sched.run()
        >>> fired
        [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[..., Any],
                                Any, Any]] = []
        self._counter = itertools.count()
        #: Current simulation time in seconds.  A plain attribute (the
        #: per-event paths read it several times per event); only
        #: :meth:`run` advances it.
        self.now = 0.0
        self._events_processed = 0
        self._running = False

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for scalability accounting)."""
        return self._events_processed

    def __len__(self) -> int:
        """Events currently pending."""
        return len(self._queue)

    def schedule(self, delay_s: float, callback: Callable[[], Any]) -> None:
        """Run ``callback`` after ``delay_s`` seconds of simulated time."""
        self.schedule_call(delay_s, callback, None, None)

    def schedule_call(self, delay_s: float, fn: Callable[..., Any],
                      a: Any, b: Any) -> None:
        """Run ``fn(a, b)`` after ``delay_s`` seconds (``fn()`` if ``a`` is
        ``None``), without wrapping the arguments in a callable."""
        # One chained comparison also rejects NaN and inf, which would
        # otherwise fire and leave the clock at a non-finite time.
        if not 0.0 <= delay_s < inf:
            raise ValueError(
                f"delay must be finite and not in the past: {delay_s}")
        heappush(self._queue,
                 (self.now + delay_s, next(self._counter), fn, a, b))

    def schedule_at(self, time_s: float, callback: Callable[[], Any]) -> None:
        """Run ``callback`` at absolute time ``time_s``."""
        if not self.now <= time_s < inf:
            raise ValueError(
                f"cannot schedule at {time_s}, already at {self.now}")
        heappush(self._queue,
                 (time_s, next(self._counter), callback, None, None))

    def run(self, until_s: Optional[float] = None) -> None:
        """Process events in order until the queue drains or ``until_s``.

        Events scheduled exactly at ``until_s`` are *not* executed, so
        repeated ``run(until_s=...)`` calls partition time cleanly.
        """
        if self._running:
            raise RuntimeError("scheduler is already running")
        self._running = True
        try:
            queue = self._queue
            stop_s = inf if until_s is None else until_s
            while queue and queue[0][0] < stop_s:
                self.now, _, fn, a, b = heappop(queue)
                # Counted per event, not once at the end: a probe reads
                # ``events_processed`` from inside an event.
                self._events_processed += 1
                if a is None:
                    fn()
                else:
                    fn(a, b)
            if until_s is not None and self.now < until_s:
                self.now = until_s
        finally:
            self._running = False

    def clear(self) -> None:
        """Drop all pending events (the clock keeps its value)."""
        self._queue.clear()
