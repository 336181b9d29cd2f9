"""Discrete-event scheduling core.

A minimal, fast event queue in the style of ns-3's ``Simulator``: events are
``(time, insertion-order)``-ordered callbacks.  Insertion order breaks ties
so same-time events run FIFO, which keeps packet orderings deterministic.
"""

from __future__ import annotations

import heapq
import itertools
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
        self._queue: List[Tuple[float, int, Optional[Callable[[], Any]]]] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for scalability accounting)."""
        return self._events_processed

    def __len__(self) -> int:
        """Events currently pending."""
        return len(self._queue)

    def schedule(self, delay_s: float, callback: Callable[[], Any]) -> None:
        """Run ``callback`` after ``delay_s`` seconds of simulated time."""
        if delay_s < 0.0:
            raise ValueError(f"cannot schedule into the past: {delay_s}")
        heapq.heappush(self._queue,
                       (self._now + delay_s, next(self._counter), callback))

    def schedule_at(self, time_s: float, callback: Callable[[], Any]) -> None:
        """Run ``callback`` at absolute time ``time_s``."""
        if time_s < self._now:
            raise ValueError(
                f"cannot schedule at {time_s}, already at {self._now}")
        heapq.heappush(self._queue,
                       (time_s, next(self._counter), callback))

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
            while queue:
                time_s, _, callback = queue[0]
                if until_s is not None and time_s >= until_s:
                    break
                heapq.heappop(queue)
                self._now = time_s
                self._events_processed += 1
                callback()
            if until_s is not None and self._now < until_s:
                self._now = until_s
        finally:
            self._running = False

    def clear(self) -> None:
        """Drop all pending events (the clock keeps its value)."""
        self._queue.clear()
