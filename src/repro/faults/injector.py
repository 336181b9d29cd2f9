"""Per-device seeded Bernoulli fault injection for the packet simulator.

Each :class:`LinkFaultInjector` owns an independent
:class:`random.Random` stream derived from ``(schedule.seed, device
name)``.  Seeding with the *string* ``"{seed}:{name}"`` routes through
CPython's sha512-based ``Random.seed(str)`` path, which is stable across
processes and independent of ``PYTHONHASHSEED`` — the property the
determinism regression test relies on.

The stream is consumed **only while a loss/corruption event is active**
on the device (one draw per offered packet), so adding a fault window at
t=[10, 20) cannot perturb packet outcomes outside that window, and two
devices' outcomes never couple through a shared RNG.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from .schedule import FaultEvent, FaultKind

__all__ = ["LinkFaultInjector"]


class LinkFaultInjector:
    """Seeded per-packet loss/corruption decisions for one link device.

    Args:
        name: The owning device's name (part of the RNG seed).
        events: The loss/corruption events targeting this device.
        seed: The fault schedule's base seed.

    Example:
        >>> injector = LinkFaultInjector(
        ...     "isl-3-4",
        ...     [FaultEvent.packet_loss(10.0, 20.0, 0.5, isl=(3, 4))],
        ...     seed=0)
        >>> injector.drop_reason(5.0) is None
        True
    """

    __slots__ = ("name", "events", "_rng")

    def __init__(self, name: str, events: Sequence[FaultEvent],
                 seed: int = 0) -> None:
        self.name = name
        self.events: Tuple[FaultEvent, ...] = tuple(
            event for event in events if event.is_stochastic)
        self._rng = random.Random(f"{seed}:{name}")

    @property
    def has_events(self) -> bool:
        return bool(self.events)

    def extend(self, events: Sequence[FaultEvent], now_s: float) -> None:
        """Add loss/corruption events to a *live* injector.

        The RNG stream is untouched — draws already consumed stay
        consumed — so extending with future windows keeps past packet
        outcomes exactly as they were, and a run where the events were
        present from t=0 but inactive until now is indistinguishable.
        Events whose window already opened are rejected: splicing one in
        mid-window would make the stream position ambiguous.
        """
        fresh = tuple(e for e in events if e.is_stochastic)
        for event in fresh:
            if event.start_s < now_s:
                raise ValueError(
                    f"cannot inject event starting at {event.start_s} "
                    f"into live injector {self.name!r} at t={now_s}; "
                    f"only future windows preserve the draw sequence")
        from .schedule import _sort_key
        self.events = tuple(sorted(self.events + fresh, key=_sort_key))

    def drop_reason(self, now: float) -> Optional[str]:
        """Decide this packet's fate at transmit time.

        Returns ``"loss"`` / ``"corruption"`` when the packet must be
        discarded, else ``None``.  Active overlapping events combine as
        independent trials: each active event gets its own draw, so the
        effective drop probability is ``1 - prod(1 - r_i)`` and the
        outcome does not depend on event order (events iterate in the
        schedule's content-sorted order anyway).
        """
        verdict: Optional[str] = None
        for event in self.events:
            if not event.active_at(now):
                continue
            if self._rng.random() < event.rate:
                # Keep drawing for the remaining active events so the
                # stream position stays a pure function of the offered-
                # packet sequence, but report the first matching kind.
                if verdict is None:
                    verdict = ("loss"
                               if event.kind is FaultKind.PACKET_LOSS
                               else "corruption")
        return verdict
