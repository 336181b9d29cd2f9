"""Hierarchical span profiling: where the *simulator* spends its time.

:mod:`repro.obs.trace` records what the simulation did; this module
records where the wall-clock went while computing it.  A *span* is a
named, nested wall-time interval — "one batched Dijkstra", "one
waterfill solve", "one sweep chunk" — and a :class:`SpanProfiler` holds
one process's span tree as flat parallel arrays.

The hook discipline mirrors :class:`~repro.obs.trace.NullTracer`: the
ambient profiler (:data:`ACTIVE`, default :data:`NULL_PROFILER`) is read
when a span opens, and the disabled path allocates nothing.  A span
opens in one of two ways::

    @spans.timed("fluid.waterfill")     # around every call of a function
    def waterfill(...): ...

    with spans.span("fluid.loads"):     # around a segment of one
        ...

:func:`profiled` is the one way to install a profiler.  ``make
bench-obs`` enforces that disabled spans cost less than 2% of a
1e5-flow vectorized fluid solve.

Cross-process merging: sweep workers install their own profiler, run
their chunk, and serialize the resulting span tree (:meth:`SpanProfiler.
as_dict`, which carries the worker's OS pid) back to the parent, which
:meth:`~SpanProfiler.adopt`\\ s each child in chunk order.  Exports are
deterministic up to wall-times: Chrome trace-event JSON
(:meth:`~SpanProfiler.chrome_trace`, loadable in Perfetto / standalone
``chrome://tracing``) uses synthetic pids in chunk order, and the
self-time phase summary (:meth:`~SpanProfiler.phase_summary`) feeds the
``phases`` section of :class:`~repro.obs.report.RunReport`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from contextlib import contextmanager, nullcontext
from typing import (Any, Callable, ContextManager, Dict, Iterator, List,
                    Optional, Sequence, Tuple)

__all__ = [
    "SpanProfilerBase", "NullSpanProfiler", "SpanProfiler",
    "NULL_PROFILER", "ACTIVE", "span", "timed", "profiled",
    "format_phases",
]

#: Default span-capacity bound: like the trace ring buffer, a profiler
#: must never grow without limit; past capacity, ``begin`` counts the
#: span as dropped and returns the no-op handle.
DEFAULT_CAPACITY = 1 << 20

#: The synthetic pid of the parent (merging) process in trace exports.
#: Children get ``MAIN_PID + 1 + chunk_index`` — deterministic across
#: runs, unlike OS pids (which travel in ``as_dict()`` metadata only).
MAIN_PID = 1


#: The disabled span: one shared, stateless no-op context.
_NO_SPAN = nullcontext()


class SpanProfilerBase:
    """Profiler interface; ``enabled`` says whether spans are recorded."""

    enabled: bool = False

    def begin(self, name: str) -> int:
        """Open a span; returns a handle for :meth:`end` (no-op: -1)."""
        return -1

    def end(self, handle: int) -> None:
        """Close the span opened as ``handle`` (no-op on -1)."""

    def span(self, name: str) -> ContextManager[None]:
        """A context manager timing its block as span ``name`` (here:
        the one shared no-op)."""
        return _NO_SPAN


class NullSpanProfiler(SpanProfilerBase):
    """The default, do-nothing profiler (``enabled`` is ``False``)."""

    __slots__ = ()


#: Shared default profiler instance; safe to reuse everywhere (stateless).
NULL_PROFILER = NullSpanProfiler()

#: The ambient profiler every span reads when it opens.  Rebound only by
#: :func:`profiled`.
ACTIVE: SpanProfilerBase = NULL_PROFILER


def span(name: str) -> ContextManager[None]:
    """``with spans.span(name):`` times a segment on the ambient profiler."""
    return ACTIVE.span(name)


def timed(name: str) -> Callable[[Callable], Callable]:
    """Decorator: every call of the function is a span ``name`` on the
    profiler that is ambient when the call starts.  A call that raises
    closes its span on the way out."""
    def decorate(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            profiler = ACTIVE
            if not profiler.enabled:
                return function(*args, **kwargs)
            handle = profiler.begin(name)
            try:
                return function(*args, **kwargs)
            finally:
                profiler.end(handle)
        return wrapper
    return decorate


@contextmanager
def profiled(profiler: Optional["SpanProfiler"] = None
             ) -> Iterator["SpanProfiler"]:
    """Make ``profiler`` (a fresh one if omitted) the ambient profiler
    for the duration of a ``with`` block; the previous one comes back
    however the block ends."""
    global ACTIVE
    previous = ACTIVE
    installed = SpanProfiler() if profiler is None else profiler
    ACTIVE = installed
    try:
        yield installed
    finally:
        ACTIVE = previous


class SpanProfiler(SpanProfilerBase):
    """An enabled span profiler: one process's hierarchical span tree.

    Args:
        label: Human-readable identity of this profiler's process in
            merged exports (e.g. ``"repro"``, ``"sweep worker 3"``).
        capacity: Maximum retained spans; further ``begin`` calls are
            counted in :attr:`dropped` and ignored.
        clock: Monotonic-seconds callable (tests substitute a fake).

    Attributes:
        dropped: Spans rejected after :attr:`capacity` was reached.
    """

    enabled = True

    def __init__(self, label: str = "repro",
                 capacity: int = DEFAULT_CAPACITY,
                 clock=time.perf_counter) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.label = label
        self.capacity = capacity
        self.dropped = 0
        self._clock = clock
        self._names: List[str] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._parents: List[int] = []
        self._stack: List[int] = []
        #: Adopted child profiles, in adoption (chunk) order: each entry
        #: is ``(profile_dict, meta)`` — see :meth:`adopt`.
        self._children: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        self._origin = clock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self._names)
        if index >= self.capacity:
            self.dropped += 1
            return -1
        self._names.append(name)
        self._starts.append(self._clock())
        self._ends.append(math.nan)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        handle = self.begin(name)
        try:
            yield
        finally:
            self.end(handle)

    def end(self, handle: int) -> None:
        if handle < 0:
            return
        # Tolerate spans abandoned by exceptions: close everything the
        # handle still encloses, innermost first.
        now = self._clock()
        stack = self._stack
        while stack:
            index = stack.pop()
            if math.isnan(self._ends[index]):
                self._ends[index] = now
            if index == handle:
                return
        raise ValueError(f"span handle {handle} is not open")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_spans(self) -> int:
        return len(self._names)

    @property
    def children(self) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """Adopted child profiles ``(profile_dict, meta)`` in chunk order."""
        return list(self._children)

    # ------------------------------------------------------------------
    # Cross-process merge
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Picklable/JSONable form for crossing a process boundary.

        Carries the recording process's OS pid so merged profiles stay
        attributable; exports map it to a deterministic synthetic pid.
        ``spans`` lists *this* process's retained spans in open order as
        ``[name, start_s, end_s (None while open), parent index (-1 for
        roots)]``.
        """
        return {
            "label": self.label,
            "os_pid": os.getpid(),
            "dropped": self.dropped,
            "spans": [
                [name, start, (None if math.isnan(end) else end), parent]
                for name, start, end, parent
                in zip(self._names, self._starts, self._ends,
                       self._parents)
            ],
        }

    def adopt(self, profile: Dict[str, Any], **meta: Any) -> None:
        """Merge a child process's serialized profile under this one.

        Args:
            profile: A child's :meth:`as_dict` payload.
            meta: Deterministic identity of the child's work (e.g.
                ``chunk_index=2, snapshot_start=10, snapshot_stop=20``),
                surfaced in the merged trace's process names.

        Children must be adopted in a deterministic order (the sweep
        engine adopts in chunk order) — exports preserve adoption order,
        which is what makes merged traces identical run-to-run.
        """
        self._children.append((dict(profile), dict(meta)))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def _all_profiles(self) -> List[Tuple[str, Dict[str, Any],
                                          Dict[str, Any]]]:
        """``(label, profile_dict, meta)`` for self + children, in order."""
        profiles = [(self.label, self.as_dict(), {})]
        for profile, meta in self._children:
            profiles.append((str(profile.get("label", "child")),
                             profile, meta))
        return profiles

    def phase_summary(self) -> Dict[str, Any]:
        """Self-time aggregation by phase name across self + children.

        Returns a JSON-ready dict: ``num_spans``, ``dropped``, and
        ``phases`` — one entry per span name with ``count``, ``total_s``
        (inclusive) and ``self_s`` (exclusive of child spans), sorted by
        descending self time.
        """
        totals: Dict[str, float] = {}
        selfs: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        num_spans = 0
        dropped = 0
        for _, profile, _ in self._all_profiles():
            spans = profile["spans"]
            num_spans += len(spans)
            dropped += int(profile.get("dropped", 0))
            durations = [0.0] * len(spans)
            child_time = [0.0] * len(spans)
            for i, (name, start, end, parent) in enumerate(spans):
                duration = (end - start) if end is not None else 0.0
                durations[i] = duration
                if parent >= 0:
                    child_time[parent] += duration
            for i, (name, _, _, _) in enumerate(spans):
                counts[name] = counts.get(name, 0) + 1
                totals[name] = totals.get(name, 0.0) + durations[i]
                selfs[name] = selfs.get(name, 0.0) + max(
                    durations[i] - child_time[i], 0.0)
        phases = [
            {"name": name, "count": counts[name],
             "total_s": totals[name], "self_s": selfs[name]}
            for name in sorted(selfs, key=lambda n: (-selfs[n], n))
        ]
        return {"num_spans": num_spans, "dropped": dropped,
                "phases": phases}

    # ------------------------------------------------------------------
    # Chrome trace-event export (Perfetto / chrome://tracing)
    # ------------------------------------------------------------------

    def chrome_trace(self, metadata: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
        """The merged profile as a Chrome trace-event JSON document.

        Every event carries ``ph``/``ts``/``pid``/``tid``/``name``;
        spans are complete events (``ph: "X"``, microsecond ``ts``/
        ``dur``), processes are named by metadata events (``ph: "M"``).
        Pids are synthetic and deterministic — :data:`MAIN_PID` for this
        profiler, ``MAIN_PID + 1 + k`` for the k-th adopted child — so
        two runs of the same scenario export the same event set, only
        wall-times (``ts``/``dur``) differing.  OS pids and chunk bounds
        appear in the top-level ``metadata`` section, not in events.
        """
        events: List[Dict[str, Any]] = []
        processes: List[Dict[str, Any]] = []
        origin = self._origin
        for start in self._starts:
            origin = min(origin, start)
        profiles = self._all_profiles()
        for profile_index, (label, profile, meta) in enumerate(profiles):
            for _, start, _, _ in profile["spans"]:
                origin = min(origin, start)
        for profile_index, (label, profile, meta) in enumerate(profiles):
            pid = MAIN_PID + profile_index
            name = label
            bounds = (meta.get("snapshot_start"), meta.get("snapshot_stop"))
            if bounds[0] is not None and bounds[1] is not None:
                name = f"{label} [snapshots {bounds[0]}:{bounds[1]})"
            events.append({"name": "process_name", "ph": "M", "ts": 0,
                           "pid": pid, "tid": 1,
                           "args": {"name": name}})
            processes.append({
                "pid": pid, "label": label,
                "os_pid": profile.get("os_pid"),
                **{key: value for key, value in meta.items()},
            })
            for span_name, start, end, parent in profile["spans"]:
                duration = (end - start) if end is not None else 0.0
                events.append({
                    "name": span_name, "ph": "X", "cat": "repro",
                    "ts": (start - origin) * 1e6,
                    "dur": duration * 1e6,
                    "pid": pid, "tid": 1,
                })
        document: Dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"processes": processes},
        }
        if metadata:
            document["metadata"].update(metadata)
        return document

    def write_chrome_trace(self, path: str,
                           metadata: Optional[Dict[str, Any]] = None
                           ) -> int:
        """Write :meth:`chrome_trace` to ``path``; returns event count."""
        document = self.chrome_trace(metadata=metadata)
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(document, stream, indent=1)
            stream.write("\n")
        return len(document["traceEvents"])


def format_phases(summary: Dict[str, Any], top: int = 10) -> List[str]:
    """Human-readable lines of a :meth:`SpanProfiler.phase_summary`.

    :meth:`RunReport.describe` prints this "top phases" table, so every
    CLI run with ``--profile-out`` does.
    """
    phases: Sequence[Dict[str, Any]] = summary.get("phases", [])
    lines = [f"top phases by self-time "
             f"({summary.get('num_spans', 0)} spans"
             + (f", {summary['dropped']} dropped"
                if summary.get("dropped") else "") + "):"]
    for phase in phases[:top]:
        lines.append(
            f"  {phase['name']:<28s} x{phase['count']:<7d} "
            f"self {phase['self_s']:9.4f}s  total {phase['total_s']:9.4f}s")
    if len(phases) > top:
        lines.append(f"  ... {len(phases) - top} more phases")
    return lines
