"""Structured tracing: typed events behind a near-zero-cost hook point.

Every instrumented layer (devices, forwarding plane, routing engine,
transports) holds a :class:`Tracer` and guards each emission with::

    tracer = self._tracer
    if tracer.enabled:
        tracer.emit(...)

The default tracer is the shared :data:`NULL_TRACER`, whose ``enabled``
is a class attribute ``False`` — the disabled path costs one attribute
check per event and never constructs a :class:`TraceEvent`.  That is the
overhead contract ``make bench-obs`` enforces.

Enabled tracing goes through :class:`RingBufferTracer`: a bounded ring
buffer (oldest events evicted, eviction counted) with an optional
per-kind filter and JSONL export, so a multi-minute run can be traced
without unbounded memory.
"""

from __future__ import annotations

import json
from collections import Counter as _Counter
from collections import deque
from dataclasses import dataclass
from typing import (Deque, Dict, IO, Iterable, Iterator, List, Optional,
                    Union)

__all__ = [
    "TraceEvent", "TraceFilter", "Tracer", "NullTracer", "RingBufferTracer",
    "NULL_TRACER",
    "PKT_ENQUEUE", "PKT_TX_START", "PKT_TX_FINISH", "PKT_DELIVER",
    "PKT_DROP", "FWD_UPDATE", "ROUTE_CHANGE",
    "FLOW_CWND", "FLOW_RTT", "FLOW_STATE",
]

# ----------------------------------------------------------------------
# Event kinds (the typed vocabulary; see DESIGN.md "Observability")
# ----------------------------------------------------------------------

#: A packet entered a device queue (or went straight to the transmitter).
PKT_ENQUEUE = "pkt.enqueue"
#: A device began serializing a packet.
PKT_TX_START = "pkt.tx_start"
#: A device finished serializing a packet (it is now propagating).
PKT_TX_FINISH = "pkt.tx_finish"
#: A packet was handed to its destination application.
PKT_DELIVER = "pkt.deliver"
#: A packet was lost; ``reason`` is one of "queue", "no_route", "ttl",
#: "no_handler", "fault" (injected loss; see
#: :mod:`repro.faults`).
PKT_DROP = "pkt.drop"
#: The forwarding controller installed a fresh state snapshot.
FWD_UPDATE = "fwd.update"
#: One destination's installed next-hop tree changed entries.
ROUTE_CHANGE = "fwd.route_change"
#: A flow's congestion window changed (``value`` = cwnd in packets).
FLOW_CWND = "flow.cwnd"
#: A flow measured an RTT (or one-way delay; ``value`` in seconds).
FLOW_RTT = "flow.rtt"
#: A congestion-control state transition (Vegas backlog, BBR mode, ...).
FLOW_STATE = "flow.state"


@dataclass
class TraceEvent:
    """One structured trace record.

    Only ``time_s`` and ``kind`` are always meaningful; the remaining
    fields default to sentinel values and are omitted from the JSONL
    export when unset.

    Events are only constructed when a tracer is enabled, so a plain
    dataclass (no ``__slots__``) keeps 3.9 compatibility without touching
    the disabled hot path.

    Attributes:
        time_s: Simulation time of the event.
        kind: One of the module-level kind constants.
        node: Node id the event happened at (-1 when not node-scoped).
        flow: Flow id (-1 when not flow-scoped).
        link: Device name, e.g. ``"isl-17-18"`` (empty when not
            link-scoped).
        seq: Transport sequence number or packet id (-1 when unset).
        value: Free numeric payload (cwnd, RTT, queue depth, ...).
        reason: Short string payload (drop reason, state name, ...).
    """

    time_s: float
    kind: str
    node: int = -1
    flow: int = -1
    link: str = ""
    seq: int = -1
    value: Optional[float] = None
    reason: str = ""

    def as_dict(self) -> Dict[str, Union[float, int, str]]:
        """Compact dict form: sentinel-valued fields are omitted."""
        record: Dict[str, Union[float, int, str]] = {
            "t": self.time_s, "kind": self.kind,
        }
        if self.node != -1:
            record["node"] = self.node
        if self.flow != -1:
            record["flow"] = self.flow
        if self.link:
            record["link"] = self.link
        if self.seq != -1:
            record["seq"] = self.seq
        if self.value is not None:
            record["value"] = self.value
        if self.reason:
            record["reason"] = self.reason
        return record


class TraceFilter:
    """Accept/reject predicate over event kinds.

    ``kinds`` left as ``None`` matches everything; a set restricts the
    retained events to those kinds.

    Example::

        TraceFilter(kinds={PKT_DROP, FLOW_CWND})
    """

    __slots__ = ("kinds",)

    def __init__(self, kinds: Optional[Iterable[str]] = None) -> None:
        self.kinds = frozenset(kinds) if kinds is not None else None

    def accepts(self, kind: str) -> bool:
        """Whether an event of this kind should be retained."""
        return self.kinds is None or kind in self.kinds


class Tracer:
    """Tracer interface.  ``enabled`` gates every emission site."""

    #: Hot paths read this before building any event arguments.
    enabled: bool = False

    def emit(self, time_s: float, kind: str, node: int = -1, flow: int = -1,
             link: str = "", seq: int = -1, value: Optional[float] = None,
             reason: str = "") -> None:
        """Record one event (no-op unless overridden)."""


class NullTracer(Tracer):
    """The default, do-nothing tracer (``enabled`` is ``False``)."""

    __slots__ = ()


#: Shared default tracer instance; safe to reuse everywhere (stateless).
NULL_TRACER = NullTracer()


class RingBufferTracer(Tracer):
    """Bounded in-memory tracer with filtering and JSONL export.

    Args:
        capacity: Maximum retained events; older events are evicted
            (and counted in :attr:`evicted`) once full.
        trace_filter: Optional :class:`TraceFilter`; rejected events are
            counted per kind but not stored.

    Attributes:
        emitted: Events offered to the tracer (accepted or not).
        evicted: Accepted events later pushed out of the ring.
    """

    enabled = True

    def __init__(self, capacity: int = 65536,
                 trace_filter: Optional[TraceFilter] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.trace_filter = trace_filter
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._counts: _Counter = _Counter()
        self.emitted = 0
        self.evicted = 0

    def emit(self, time_s: float, kind: str, node: int = -1, flow: int = -1,
             link: str = "", seq: int = -1, value: Optional[float] = None,
             reason: str = "") -> None:
        self.emitted += 1
        trace_filter = self.trace_filter
        if trace_filter is not None and not trace_filter.accepts(kind):
            return
        self._counts[kind] += 1
        events = self._events
        if len(events) == self.capacity:
            self.evicted += 1
        events.append(TraceEvent(time_s, kind, node, flow, link, seq,
                                 value, reason))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    @property
    def counts(self) -> Dict[str, int]:
        """Accepted events per kind (including since-evicted ones)."""
        return dict(self._counts)

    def events_of(self, kind: str) -> List[TraceEvent]:
        """Retained events of one kind, oldest first."""
        return [event for event in self._events if event.kind == kind]

    def summary(self) -> Dict[str, Union[int, Dict[str, int]]]:
        """Counts suitable for a run report."""
        return {
            "emitted": self.emitted,
            "retained": len(self._events),
            "evicted": self.evicted,
            "by_kind": self.counts,
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def write_jsonl(self, stream: IO[str]) -> int:
        """Write retained events as JSON Lines; returns the line count."""
        count = 0
        for event in self._events:
            stream.write(json.dumps(event.as_dict(), separators=(",", ":")))
            stream.write("\n")
            count += 1
        return count

    def to_jsonl(self, path: str) -> int:
        """Write retained events to a ``.jsonl`` file at ``path``."""
        with open(path, "w", encoding="utf-8") as stream:
            return self.write_jsonl(stream)
