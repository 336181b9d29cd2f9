"""Per-layer tracing for the end-to-end benchmark, kept outside the product.

A traced run installs timing wrappers around the public functions that
form each layer's boundary (``TARGETS`` below) and records one span per
call into preallocated memory: name, start, end, parent span, thread, and
an optional work count.  Nothing is written until the run ends; then the
spans become the per-layer table (self time = a span's duration minus the
part its child spans cover) and a Chrome trace-event file.

The wrappers are ordinary module/class attributes with
``functools.wraps``; names re-bound elsewhere by ``from x import f`` are
rebound too.  A target that no longer exists is reported in
``missing`` and its metrics read ``None`` — deleting a product code path
must never break the benchmark.  Nothing here relies on the span names
used inside ``repro.obs.spans``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from stats import percentile_ms

#: (span name, module, attribute path, probe).  A probe maps the call's
#: ``(args, kwargs)`` to the span's work count.
TARGETS: List[Tuple[str, str, str, Optional[str]]] = [
    ("topology.snapshot", "repro.topology.network", "LeoNetwork.snapshot", None),
    ("topology.timeline", "repro.topology.dynamic_state", "compute_pair_chunk", None),
    ("routing.route_to_many", "repro.routing.engine", "RoutingEngine.route_to_many", "router"),
    ("routing.route_to_many", "repro.routing.incremental", "IncrementalRouter.route_to_many", "router"),
    ("routing.paths", "repro.routing.engine", "RoutingEngine.path_and_distance_via", None),
    ("routing.paths", "repro.routing.engine", "RoutingEngine.paths_many", None),
    ("fluid.matrix_build", "repro.fluid.engine", "flow_link_matrix_from_paths", None),
    ("fluid.waterfill", "repro.fluid.vectorized", "waterfill", "waterfill_rows"),
    ("fluid.advance", "repro.fluid.engine", "FluidSimulation.advance", None),
    ("simulation.run", "repro.simulation.simulator", "PacketSimulator.run", None),
    ("transport.tcp", "repro.simulation.simulator", "PacketSimulator.register_handler", "handler"),
    ("traffic.generate", "repro.traffic.arrivals", "FlowArrivalProcess.generate", None),
    ("traffic.as_fluid_flows", "repro.traffic.arrivals", "WorkloadSchedule.as_fluid_flows", None),
    ("service.advance", "repro.service.driver", "LiveSimulationService.advance_epoch", None),
    ("service.attach", "repro.service.driver", "LiveSimulationService.attach_workload", None),
    ("service.inject", "repro.service.driver", "LiveSimulationService.inject_fault", None),
    ("service.report", "repro.service.driver", "LiveSimulationService.report", None),
    ("service.query", "repro.service.driver", "LiveSimulationService.status", None),
    ("service.query", "repro.service.driver", "LiveSimulationService.metrics_dict", None),
    ("service.checkpoint_save", "repro.service.checkpoint", "save_checkpoint", None),
    ("service.checkpoint_load", "repro.service.checkpoint", "load_checkpoint", None),
    ("sweep.total", "repro.sweep.engine", "sweep_timelines", None),
    ("sweep.spec_build", "repro.sweep.spec", "NetworkSpec.from_network", None),
    ("sweep.spec_build", "repro.sweep.spec", "NetworkSpec.build", None),
]

#: Root spans the worker opens around its own phases.
SETUP, BODY, VERIFY = "phase.setup", "phase.body", "phase.verify"


class SpanRecorder:
    """Spans of one process in preallocated parallel lists.

    Threads keep separate parent stacks (the service workload runs its
    server on a second thread).  A forked child (sweep workers) starts
    from an empty recorder and appends every finished top-level span tree
    to ``child_dir/spans-<pid>.jsonl``; :meth:`adopt_children` merges those
    files back so worker-side layers show up in the parent's table.
    """

    def __init__(self, capacity: int = 1 << 20,
                 child_dir: Optional[str] = None) -> None:
        self.capacity = capacity
        self.child_dir = child_dir
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.name_ids = [0] * capacity
        self.starts = [0.0] * capacity
        self.ends = [0.0] * capacity
        self.parents = [-1] * capacity
        self.threads = [0] * capacity
        self.values = [0.0] * capacity
        self.dropped = 0
        self.in_child = False
        self._next = itertools.count()
        self._current: Dict[int, int] = {}
        #: Routing engines seen by the ``router`` probe (for repair_frac).
        self.routers: Dict[int, Any] = {}
        #: Spans adopted from child processes: (name, start, end, parent,
        #: thread, value) rows whose parent indexes are file-local.
        self._adopted: List[List[Tuple[str, float, float, int, int, float]]] = []
        self._child_router_counts = [0, 0]  # repairs, fallbacks
        self._router_baseline = (0, 0)

    def name_id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def begin(self, name_id: int, value: float = 0.0) -> int:
        index = next(self._next)
        if index >= self.capacity:
            self.dropped += 1
            return -1
        thread = threading.get_ident()
        current = self._current
        self.parents[index] = current.get(thread, -1)
        current[thread] = index
        self.name_ids[index] = name_id
        self.threads[index] = thread
        self.values[index] = value
        self.starts[index] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        if index < 0:
            return
        self.ends[index] = now
        parent = self.parents[index]
        self._current[threading.get_ident()] = parent
        if self.in_child and parent == -1:
            self._flush_child()

    def span(self, name: str) -> "_SpanContext":
        """``with recorder.span("harness.digest"): ...`` for harness code."""
        return _SpanContext(self, self.name_id(name))

    # -- process boundary ---------------------------------------------------

    def _after_fork_in_child(self) -> None:
        self.in_child = True
        self._next = itertools.count()
        self._current = {}
        self.routers.clear()  # same dict: the route probe holds it

    def _flush_child(self) -> None:
        count = min(next(self._next), self.capacity)
        self._next = itertools.count()
        if self.child_dir is None or count == 0:
            return
        repairs, fallbacks = router_counts(self.routers.values())
        record = {
            "pid": os.getpid(),
            "spans": [[self.names[self.name_ids[i]], self.starts[i],
                       self.ends[i], self.parents[i], self.values[i]]
                      for i in range(count)],
            "repairs": repairs, "fallbacks": fallbacks,
        }
        self.routers.clear()
        path = os.path.join(self.child_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(record) + "\n")

    def adopt_children(self) -> None:
        """Merge the span files forked workers left in ``child_dir``."""
        if self.child_dir is None or not os.path.isdir(self.child_dir):
            return
        for entry in sorted(os.listdir(self.child_dir)):
            if not entry.startswith("spans-"):
                continue
            path = os.path.join(self.child_dir, entry)
            with open(path, encoding="utf-8") as stream:
                for line in stream:
                    record = json.loads(line)
                    self._adopted.append([
                        (name, start, end, parent, record["pid"], value)
                        for name, start, end, parent, value
                        in record["spans"]])
                    self._child_router_counts[0] += record["repairs"]
                    self._child_router_counts[1] += record["fallbacks"]
            os.remove(path)

    def _router_totals(self) -> Tuple[int, int]:
        repairs, fallbacks = router_counts(self.routers.values())
        return (repairs + self._child_router_counts[0],
                fallbacks + self._child_router_counts[1])

    def body_starts(self) -> None:
        """Call before the timed body: repairs and fallbacks counted so
        far (the warm-up's) are not the body's."""
        self.adopt_children()
        self._router_baseline = self._router_totals()

    def body_router_counts(self) -> Tuple[int, int]:
        """(repairs, large-delta fallbacks) since :meth:`body_starts`."""
        repairs, fallbacks = self._router_totals()
        return (repairs - self._router_baseline[0],
                fallbacks - self._router_baseline[1])

    # -- analysis -----------------------------------------------------------

    def table(self) -> "SpanTable":
        count = min(next(self._next), self.capacity)
        self._next = itertools.count(count)
        names = list(self.names)
        name_id = dict(self._name_id)
        rows_name = self.name_ids[:count]
        start = self.starts[:count]
        end = self.ends[:count]
        parent = self.parents[:count]
        thread = self.threads[:count]
        value = self.values[:count]
        for batch in self._adopted:
            offset = len(rows_name)
            for name, s, e, p, pid, v in batch:
                if name not in name_id:
                    name_id[name] = len(names)
                    names.append(name)
                rows_name.append(name_id[name])
                start.append(s)
                end.append(e)
                parent.append(p + offset if p >= 0 else -1)
                thread.append(pid)
                value.append(v)
        return SpanTable(names, np.array(rows_name, dtype=np.int64),
                         np.array(start), np.array(end),
                         np.array(parent, dtype=np.int64),
                         np.array(thread, dtype=np.int64), np.array(value))


class _SpanContext:
    __slots__ = ("recorder", "name_id", "index")

    def __init__(self, recorder: SpanRecorder, name_id: int) -> None:
        self.recorder = recorder
        self.name_id = name_id
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.recorder.begin(self.name_id)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.recorder.end(self.index)


class SpanTable:
    """Finished spans as arrays, with self-time arithmetic."""

    def __init__(self, names: List[str], name: np.ndarray, start: np.ndarray,
                 end: np.ndarray, parent: np.ndarray, thread: np.ndarray,
                 value: np.ndarray) -> None:
        self.names = names
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.thread = thread
        self.value = value
        # A span left open (its caller raised past the recorder) has no end.
        self.duration = np.maximum(end - start, 0.0)
        covered = np.zeros(len(name))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], self.duration[has_parent])
        #: Duration minus the part child spans cover (never negative:
        #: clock reads of a child can straddle its parent's by a tick).
        self.self_s = np.maximum(self.duration - covered, 0.0)

    def ids(self, name: str) -> np.ndarray:
        """Indexes of the spans called ``name``."""
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def within(self, root_name: str) -> np.ndarray:
        """Mask of spans that ran during a ``root_name`` span on any
        thread or process — the server thread's and sweep workers' spans
        have no parent in the main thread, only a time interval."""
        mask = np.zeros(len(self.name), dtype=bool)
        for root in self.ids(root_name):
            mask |= ((self.start >= self.start[root])
                     & (self.end <= self.end[root]))
            mask[root] = False
        return mask

    def layer(self, name: str, mask: np.ndarray) -> Dict[str, Any]:
        """``self_s``/``calls``/durations of one span name under ``mask``."""
        chosen = self.ids(name)
        chosen = chosen[mask[chosen]]
        return {"self_s": float(self.self_s[chosen].sum()),
                "calls": int(chosen.size),
                "durations_s": self.duration[chosen],
                "values": self.value[chosen]}

    def chrome_trace(self, workload: str) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (``chrome://tracing``)."""
        if len(self.start) == 0:
            return {"traceEvents": []}
        origin = float(self.start.min())
        pid = os.getpid()
        events = []
        for i in range(len(self.name)):
            events.append({
                "name": self.names[self.name[i]], "ph": "X", "pid": pid,
                "tid": int(self.thread[i]) % 1_000_000,
                "ts": (float(self.start[i]) - origin) * 1e6,
                "dur": float(self.duration[i]) * 1e6,
                "args": {"workload": workload, "span": i,
                         "parent": int(self.parent[i]),
                         "count": float(self.value[i])},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------

def router_counts(routers: Iterable[Any]) -> Tuple[int, int]:
    """(repairs, large-delta fallbacks) over routing engines, read
    best-effort from their public ``inc_perf`` counters."""
    repairs = fallbacks = 0
    for router in routers:
        counters = getattr(router, "inc_perf", None)
        repairs += int(getattr(counters, "repairs", 0) or 0)
        fallbacks += int(getattr(counters, "fallbacks_large_delta", 0) or 0)
    return repairs, fallbacks


def _timed(recorder: SpanRecorder, function: Callable, name: str,
           probe: Optional[str]) -> Callable:
    name_id = recorder.name_id(name)
    begin, end = recorder.begin, recorder.end

    if probe == "handler":
        # register_handler(self, node_id, flow_id, handler): time the
        # handler the transport passes in, not the registration.
        @functools.wraps(function)
        def register(self, node_id, flow_id, handler):
            return function(self, node_id, flow_id,
                            _timed(recorder, handler, name, None))
        return register

    if probe == "router":
        routers = recorder.routers

        @functools.wraps(function)
        def route(self, *args, **kwargs):
            routers.setdefault(id(self), self)
            index = begin(name_id)
            try:
                return function(self, *args, **kwargs)
            finally:
                end(index)
        return route

    if probe == "waterfill_rows":
        # waterfill(matrix, demands=None, active=None): the work count is
        # the number of rows solved (0 if the signature ever changes).
        @functools.wraps(function)
        def waterfill(*args, **kwargs):
            active = kwargs.get("active", args[2] if len(args) > 2 else None)
            try:
                rows = args[0].num_flows if active is None else len(active)
            except (AttributeError, IndexError, TypeError):
                rows = 0
            index = begin(name_id, float(rows))
            try:
                return function(*args, **kwargs)
            finally:
                end(index)
        return waterfill

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = begin(name_id)
        try:
            return function(*args, **kwargs)
        finally:
            end(index)
    return wrapper


def install(recorder: SpanRecorder) -> List[str]:
    """Wrap every target that exists; returns the missing ones."""
    missing: List[str] = []
    for name, module_name, path, probe in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{path}")
            continue
        owner: Any = module
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            # A method that moved to a base class is still covered by the
            # base class's own target; anything else is gone.
            if not (owners and hasattr(owner, attr)):
                missing.append(f"{module_name}.{path}")
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(
                _timed(recorder, raw.__func__, name, probe)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(
                _timed(recorder, raw.__func__, name, probe)))
        elif owner is module:
            wrapped = _timed(recorder, raw, name, probe)
            # Rebind every ``from module import name`` copy as well.
            for other in list(sys.modules.values()):
                if (other is not None
                        and getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(attr) is raw):
                    setattr(other, attr, wrapped)
        else:
            setattr(owner, attr, _timed(recorder, raw, name, probe))
    os.register_at_fork(after_in_child=recorder._after_fork_in_child)
    return missing


# ---------------------------------------------------------------------------
# The per-layer table
# ---------------------------------------------------------------------------

#: (span name, report ``.calls`` too, sum over the whole run rather than
#: the timed body).  ``traffic.*`` and checkpoint loading do their work in
#: set-up and verification.
LAYER_SPANS: List[Tuple[str, bool, bool]] = [
    ("topology.snapshot", True, False),
    ("topology.timeline", False, False),
    ("routing.route_to_many", True, False),
    ("routing.paths", True, False),
    ("fluid.matrix_build", True, False),
    ("fluid.waterfill", True, False),
    ("fluid.advance", False, False),
    ("simulation.run", False, False),
    ("transport.tcp", True, False),
    ("traffic.generate", False, True),
    ("traffic.as_fluid_flows", False, True),
    ("service.advance", False, False),
    ("service.checkpoint_save", False, False),
    ("service.checkpoint_load", False, True),
    ("sweep.total", False, False),
    ("sweep.spec_build", False, False),
]


def layer_metrics(table: SpanTable, recorder: SpanRecorder,
                  missing: List[str]) -> Dict[str, Optional[float]]:
    """Span-derived per-layer metrics of one traced worker.

    Layer time is what ran during the timed body, on any thread or
    process.  A layer none of whose targets exists any more reads None.
    """
    body = table.within(BODY)
    everywhere = np.ones(len(table.name), dtype=bool)
    wrapped = {name for name, module, path, _ in TARGETS
               if f"{module}.{path}" not in missing}
    metrics: Dict[str, Optional[float]] = {}
    stats: Dict[str, Dict[str, Any]] = {}
    for name, with_calls, whole_run in LAYER_SPANS:
        stats[name] = table.layer(name, everywhere if whole_run else body)
        ok = name in wrapped
        metrics[f"{name}.self_s"] = stats[name]["self_s"] if ok else None
        if with_calls:
            metrics[f"{name}.calls"] = stats[name]["calls"] if ok else None

    route = stats["routing.route_to_many"]["durations_s"]
    routed = "routing.route_to_many" in wrapped
    metrics["routing.route_to_many.p50_ms"] = (
        percentile_ms(route, 50) if routed else None)
    metrics["routing.route_to_many.p90_ms"] = (
        percentile_ms(route, 90) if routed else None)
    repairs, fallbacks = recorder.body_router_counts()
    metrics["routing.repair_frac"] = (
        repairs / (repairs + fallbacks) if repairs + fallbacks else None)
    rows = stats["fluid.waterfill"]["values"]
    metrics["fluid.waterfill.rows_per_call"] = (
        None if "fluid.waterfill" not in wrapped
        else float(rows.mean()) if rows.size else 0.0)

    # Server-side command handling: what the client waited for, minus the
    # driver calls (top-level spans of the server thread) made for it.
    waited = float(table.layer("service.client", body)["durations_s"].sum())
    driver = sum(
        float(table.duration[ids[(table.parent[ids] == -1)
                                 & body[ids]]].sum())
        for ids in (table.ids(name) for name in table.names
                    if name.startswith("service.")
                    and name != "service.client"))
    metrics["service.dispatch.self_s"] = max(waited - driver, 0.0)

    roots = table.ids(BODY)
    body_s = float(table.duration[roots].sum())
    harness = sum(table.layer(name, body)["self_s"] for name in table.names
                  if name.startswith("harness."))
    metrics["trace.unattributed_frac"] = (
        float(table.self_s[roots].sum()) / body_s if body_s else None)
    metrics["trace.harness_frac"] = harness / body_s if body_s else None
    metrics["trace.missing_targets"] = len(missing)
    metrics["trace.dropped_spans"] = recorder.dropped
    return metrics
