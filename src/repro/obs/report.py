"""Run reports: one object unifying packet and fluid run summaries.

A :class:`RunReport` wraps what a run produced — performance summary,
packet/flow accounting, optional metrics-registry contents, optional
trace summary — behind one JSON-exportable shape.  ``repro report`` (the
CLI) is a thin wrapper over these builders; benchmarks compare runs by
diffing the ``summary`` sections.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

import numpy as np

from .metrics import Histogram, MetricsRegistry
from .trace import RingBufferTracer

if TYPE_CHECKING:  # runtime-import-free: obs must not depend on the layers
    from ..fluid.engine import FluidResult
    from ..simulation.simulator import PacketSimulator

__all__ = ["RunReport", "packet_run_report", "fluid_run_report",
           "fct_summary", "FCT_BUCKETS"]

#: Canonical flow-completion-time histogram bounds (seconds) — wider than
#: the generic latency buckets because FCTs span millisecond pings to
#: minute-long heavy-tail transfers.  Shared by the fluid report extras
#: and the packet-side workload spawner so their distributions compare
#: bucket-for-bucket.
FCT_BUCKETS = (0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)


def fct_summary(fcts) -> Dict[str, float]:
    """Mean / p50 / p90 / p99 / max of a completion-time array.

    The one place FCT percentiles are computed: the fluid and packet
    summaries, the per-controller report rows and the cc-lab cells each
    publish the keys they report from this dict.  Empty when no flow
    completed.
    """
    fcts = np.asarray(fcts, dtype=np.float64)
    if fcts.size == 0:
        return {}
    p50, p90, p99 = np.percentile(fcts, (50, 90, 99))
    return {"fct_mean_s": float(fcts.mean()), "fct_p50_s": float(p50),
            "fct_p90_s": float(p90), "fct_p99_s": float(p99),
            "fct_max_s": float(fcts.max())}


#: Report schema version (bump on breaking shape changes).
REPORT_VERSION = 1


@dataclass
class RunReport:
    """The unified result object of one simulation run.

    Attributes:
        kind: ``"packet"``, ``"fluid.maxmin"``, or ``"fluid.aimd"``.
        duration_s: Simulated duration the report covers.
        summary: Flat work/accounting numbers (always present); no
            wall-clock value — that is :attr:`phases`.
        metrics: ``MetricsRegistry.as_dict()`` contents, if a registry
            was attached to the run.
        trace: Tracer summary (event counts), if tracing was enabled.
        phases: Span-profiler self-time summary
            (:meth:`repro.obs.spans.SpanProfiler.phase_summary`), if a
            profiler was active during the run.
        provenance: Self-describing run identity — engine name,
            seeds, workers, faults/workload schedule identity — so a
            report (or the profile exported next to it) can be matched
            back to the exact scenario that produced it.
    """

    kind: str
    duration_s: float
    summary: Dict[str, Any]
    metrics: Optional[Dict[str, Any]] = None
    trace: Optional[Dict[str, Any]] = None
    phases: Optional[Dict[str, Any]] = None
    provenance: Optional[Dict[str, Any]] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self, deterministic: bool = False) -> Dict[str, Any]:
        """The report as one JSON-ready dict.

        Args:
            deterministic: Drop :attr:`phases`, the one wall-clock
                section, so two runs of the same seeded scenario
                serialize byte-identically — the form the determinism
                regression tests compare.
        """
        payload: Dict[str, Any] = {
            "report_version": REPORT_VERSION,
            "kind": self.kind,
            "duration_s": self.duration_s,
            "summary": self.summary,
        }
        if self.provenance is not None:
            payload["provenance"] = self.provenance
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        if self.trace is not None:
            payload["trace"] = self.trace
        if self.phases is not None and not deterministic:
            payload["phases"] = self.phases
        payload.update(self.extras)
        return payload

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.as_dict(), stream, indent=1)
            stream.write("\n")

    def describe(self) -> str:
        """A short human-readable digest (CLI output)."""
        lines = [f"[{self.kind}] {self.duration_s:.1f}s simulated"]
        if self.provenance:
            identity = ", ".join(f"{key}={value}" for key, value
                                 in sorted(self.provenance.items())
                                 if not isinstance(value, dict))
            if identity:
                lines.append(f"  provenance: {identity}")
        for key, value in sorted(self.summary.items()):
            if isinstance(value, float):
                lines.append(f"  {key}: {value:.6g}")
            else:
                lines.append(f"  {key}: {value}")
        fct = self.extras.get("fct")
        if fct is not None:
            lines.append(
                f"  fct: {fct.get('flows_completed', 0)}/"
                f"{fct.get('flows_finite', 0)} flows completed, "
                f"{fct.get('delivered_bits', 0.0):.6g}/"
                f"{fct.get('offered_bits', 0.0):.6g} bits delivered")
        if self.trace is not None:
            lines.append(f"  trace: {self.trace.get('retained', 0)} events "
                         f"retained ({self.trace.get('emitted', 0)} emitted)")
        if self.metrics is not None:
            series = self.metrics.get("series", {})
            lines.append(f"  metrics: {len(series)} sampled series")
        if self.phases:
            from .spans import format_phases
            lines.extend("  " + line
                         for line in format_phases(self.phases, top=5))
        return "\n".join(lines)


def _active_phase_summary() -> Optional[Dict[str, Any]]:
    """Phase summary of the ambient span profiler, if one is installed."""
    from . import spans
    profiler = spans.ACTIVE
    if isinstance(profiler, spans.SpanProfiler):
        return profiler.phase_summary()
    return None


def packet_run_report(sim: "PacketSimulator", duration_s: float,
                      registry: Optional[MetricsRegistry] = None,
                      include_series: bool = True) -> RunReport:
    """Build the report of a packet-simulator run.

    Args:
        sim: The simulator after :meth:`PacketSimulator.run`.
        duration_s: Simulated duration covered.
        registry: Metrics to embed (e.g. a probe's registry).
        include_series: Embed the registry's time series too.

    The simulator's tracer contributes its summary when it is a
    summarizing tracer.
    """
    stats = sim.stats
    summary: Dict[str, Any] = dict(stats.as_dict())
    summary.update(stats.perf_summary())
    tracer = sim.tracer
    trace_summary = (tracer.summary()
                     if isinstance(tracer, RingBufferTracer) else None)
    metrics = (registry.as_dict(include_series=include_series)
               if registry is not None else None)
    return RunReport(kind="packet", duration_s=duration_s, summary=summary,
                     metrics=metrics, trace=trace_summary,
                     phases=_active_phase_summary(),
                     provenance={"engine": "packet"})


def fluid_run_report(result: "FluidResult",
                     registry: Optional[MetricsRegistry] = None
                     ) -> RunReport:
    """Build the report of a fluid-engine run (max-min or AIMD).

    Workload-driven runs (finite flows) additionally carry an ``fct``
    extras section: the completion-time distribution over
    :data:`FCT_BUCKETS` plus per-run offered/delivered totals.
    """
    summary = result.perf_summary()
    metrics = registry.as_dict() if registry is not None else None
    duration = result.duration_s if result.duration_s > 0.0 else (
        float(result.times_s[-1]) if len(result.times_s) else 0.0)
    extras: Dict[str, Any] = {}
    if result.flow_fct_s is not None:
        histogram = Histogram("traffic.fct_s", buckets=FCT_BUCKETS)
        for value in result.fct_values():
            histogram.observe(float(value))
        finite = (np.isfinite(result.flow_offered_bits)
                  if result.flow_offered_bits is not None else None)
        extras["fct"] = {
            "histogram": histogram.as_dict(),
            "flows_finite": int(finite.sum()) if finite is not None else 0,
            "flows_completed": int(histogram.count),
            "offered_bits": (float(result.flow_offered_bits[finite].sum())
                             if finite is not None else 0.0),
            "delivered_bits": (
                float(result.flow_delivered_bits[finite].sum())
                if result.flow_delivered_bits is not None
                and finite is not None else 0.0),
        }
    identity: Dict[str, Any] = {"engine": result.engine}
    if getattr(result, "kernel", ""):
        identity["kernel"] = result.kernel
    return RunReport(kind=f"fluid.{result.engine}",
                     duration_s=duration,
                     summary=summary, metrics=metrics, extras=extras,
                     phases=_active_phase_summary(), provenance=identity)
