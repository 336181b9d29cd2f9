"""repro.obs: the cross-cutting observability layer.

Three parts (see DESIGN.md "Observability"):

* :mod:`repro.obs.trace` — typed trace events behind a near-zero-cost
  hook (``NullTracer`` by default; ``RingBufferTracer`` with per-flow /
  per-link filters, bounded memory, and JSONL export when enabled);
* :mod:`repro.obs.metrics` — counters, gauges, histograms, time-series
  logs, and the :class:`MetricsRegistry` they live in;
  :mod:`repro.obs.probes` adds the periodic sampling probes that turn
  device counters into per-link queue-depth / utilization / throughput
  series;
* :mod:`repro.obs.report` — the :class:`RunReport` object unifying
  packet-simulator and fluid-engine run summaries (``repro report`` on
  the command line);
* :mod:`repro.obs.spans` — the hierarchical span profiler measuring
  where the *simulator's* wall-clock goes (``NullSpanProfiler`` by
  default; Chrome trace-event / Perfetto export, cross-process sweep
  merge, and the report's ``phases`` section when enabled).

This package deliberately imports nothing from the simulation, transport,
routing, or fluid layers — they all import *it*.
"""

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      TimeSeriesLog)
from .probes import SimulatorProbe, isl_utilization_from_registry
from .report import RunReport, fluid_run_report, packet_run_report
from .spans import (NULL_PROFILER, NullSpanProfiler, SpanProfiler,
                    SpanProfilerBase, SpanRecord, format_phases, install,
                    profiled, uninstall)
from .trace import (NULL_TRACER, FLOW_CWND, FLOW_RTT, FLOW_STATE,
                    FWD_UPDATE, PKT_DELIVER, PKT_DROP, PKT_ENQUEUE,
                    PKT_TX_FINISH, PKT_TX_START, ROUTE_CHANGE,
                    ROUTING_COMPUTE, WARNING, NullTracer, RingBufferTracer,
                    TraceEvent, TraceFilter, Tracer)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "TimeSeriesLog",
    "SimulatorProbe", "isl_utilization_from_registry",
    "RunReport", "fluid_run_report", "packet_run_report",
    "SpanProfilerBase", "NullSpanProfiler", "SpanProfiler", "SpanRecord",
    "NULL_PROFILER", "install", "uninstall", "profiled", "format_phases",
    "Tracer", "NullTracer", "RingBufferTracer", "TraceEvent", "TraceFilter",
    "NULL_TRACER",
    "PKT_ENQUEUE", "PKT_TX_START", "PKT_TX_FINISH", "PKT_DELIVER",
    "PKT_DROP", "FWD_UPDATE", "ROUTE_CHANGE", "ROUTING_COMPUTE",
    "FLOW_CWND", "FLOW_RTT", "FLOW_STATE", "WARNING",
]
