"""Tests for the observability layer: tracing, metrics, probes, reports."""

import json

import numpy as np
import pytest

from repro.obs import (NULL_TRACER, FLOW_RTT, PKT_DELIVER, PKT_DROP,
                       PKT_ENQUEUE, ROUTE_CHANGE, ROUTING_COMPUTE, WARNING,
                       Counter, Gauge, Histogram, MetricsRegistry,
                       NullTracer, RingBufferTracer, SimulatorProbe,
                       TimeSeriesLog, TraceEvent, TraceFilter,
                       isl_utilization_from_registry)
from repro.simulation.devices import DeviceStats
from repro.simulation.packet import Packet
from repro.simulation.simulator import LinkConfig, PacketSimulator
from repro.transport.udp import UdpFlow


class TestTraceEvent:
    def test_as_dict_omits_sentinels(self):
        event = TraceEvent(1.5, PKT_DROP, link="isl-1-2", reason="queue")
        record = event.as_dict()
        assert record == {"t": 1.5, "kind": PKT_DROP, "link": "isl-1-2",
                          "reason": "queue"}

    def test_as_dict_full(self):
        event = TraceEvent(0.0, FLOW_RTT, node=3, flow=7, link="gsl-3",
                           seq=12, value=0.05, reason="owd")
        assert set(event.as_dict()) == {"t", "kind", "node", "flow", "link",
                                        "seq", "value", "reason"}


class TestTraceFilter:
    def test_kind_filter(self):
        f = TraceFilter(kinds={PKT_DROP})
        assert f.accepts(PKT_DROP, -1, "")
        assert not f.accepts(PKT_ENQUEUE, -1, "")

    def test_flow_filter_ignores_unscoped(self):
        f = TraceFilter(flows={7})
        assert f.accepts(PKT_DROP, 7, "")
        assert not f.accepts(PKT_DROP, 8, "")
        # Events without a flow id pass a flow filter.
        assert f.accepts(ROUTE_CHANGE, -1, "")

    def test_link_filter(self):
        f = TraceFilter(links={"isl-0-1"})
        assert f.accepts(PKT_ENQUEUE, -1, "isl-0-1")
        assert not f.accepts(PKT_ENQUEUE, -1, "isl-9-9")
        assert f.accepts(ROUTING_COMPUTE, -1, "")


class TestNullTracer:
    def test_disabled_and_noop(self):
        assert NullTracer.enabled is False
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(0.0, PKT_DROP, reason="queue")  # must not raise


class TestRingBufferTracer:
    def test_retains_and_counts(self):
        tracer = RingBufferTracer(capacity=10)
        assert tracer.enabled
        tracer.emit(0.0, PKT_ENQUEUE, link="isl-0-1")
        tracer.emit(0.1, PKT_DROP, link="isl-0-1", reason="queue")
        assert len(tracer) == 2
        assert tracer.counts == {PKT_ENQUEUE: 1, PKT_DROP: 1}
        assert [e.kind for e in tracer.events_of(PKT_DROP)] == [PKT_DROP]

    def test_eviction_bounded(self):
        tracer = RingBufferTracer(capacity=4)
        for i in range(10):
            tracer.emit(float(i), PKT_ENQUEUE, seq=i)
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.evicted == 6
        assert [e.seq for e in tracer.events] == [6, 7, 8, 9]

    def test_filter_applied(self):
        tracer = RingBufferTracer(
            trace_filter=TraceFilter(kinds={PKT_DROP}))
        tracer.emit(0.0, PKT_ENQUEUE)
        tracer.emit(0.0, PKT_DROP, reason="queue")
        assert len(tracer) == 1
        assert tracer.emitted == 2

    def test_jsonl_round_trip(self, tmp_path):
        tracer = RingBufferTracer()
        tracer.emit(1.0, PKT_DELIVER, node=5, flow=2, seq=9)
        path = tmp_path / "trace.jsonl"
        assert tracer.to_jsonl(str(path)) == 1
        record = json.loads(path.read_text().strip())
        assert record == {"t": 1.0, "kind": PKT_DELIVER, "node": 5,
                          "flow": 2, "seq": 9}

    def test_summary_shape(self):
        tracer = RingBufferTracer(capacity=2)
        for _ in range(3):
            tracer.emit(0.0, WARNING, reason="x")
        summary = tracer.summary()
        assert summary["emitted"] == 3
        assert summary["retained"] == 2
        assert summary["evicted"] == 1
        assert summary["by_kind"] == {WARNING: 3}

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            RingBufferTracer(capacity=0)


class TestMetrics:
    def test_counter(self):
        counter = Counter("drops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge(self):
        gauge = Gauge("depth")
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0

    def test_histogram(self):
        hist = Histogram("rtt", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(5.55 / 3)
        assert hist.quantile(0.0) <= 0.1
        data = hist.as_dict()
        assert data["count"] == 3

    def test_histogram_exact_small_sample_quantiles(self):
        # Under EXACT_QUANTILE_SAMPLES observations, quantiles are exact
        # nearest-rank over the raw samples, not bucket upper bounds.
        hist = Histogram("rtt", buckets=(10.0, 100.0))
        for value in (5.0, 1.0, 3.0, 2.0, 4.0):
            hist.observe(value)
        assert hist.exact
        assert hist.quantile(0.5) == 3.0
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 5.0
        assert hist.quantile(0.99) == 5.0

    def test_histogram_as_dict_sum_count_and_quantiles(self):
        hist = Histogram("rtt", buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 20.0):
            hist.observe(value)
        data = hist.as_dict()
        assert data["count"] == 3
        assert data["sum"] == pytest.approx(22.5)
        assert data["exact_quantiles"] is True
        assert data["p50"] == 2.0
        assert data["p99"] == 20.0

    def test_histogram_falls_back_past_sample_cap(self):
        from repro.obs.metrics import EXACT_QUANTILE_SAMPLES

        hist = Histogram("rtt", buckets=(1000.0, 10_000.0))
        for value in range(EXACT_QUANTILE_SAMPLES + 1):
            hist.observe(float(value))
        assert not hist.exact
        # Bucket-resolution fallback: the quantile lands on a bound.
        assert hist.quantile(0.5) == 1000.0
        assert hist.as_dict()["exact_quantiles"] is False

    def test_histogram_empty_quantiles_none_in_dict(self):
        hist = Histogram("rtt", buckets=(1.0,))
        data = hist.as_dict()
        assert data["count"] == 0
        assert data["p50"] is None
        assert data["p99"] is None

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.series("s") is registry.series("s")
        with pytest.raises(TypeError):
            registry.gauge("a")  # name already bound to a counter

    def test_registry_series_names(self):
        registry = MetricsRegistry()
        registry.series("link.isl-0-1.utilization")
        registry.series("link.isl-0-1.queue_depth")
        registry.series("scheduler.events_per_s")
        names = registry.series_names(prefix="link.",
                                      suffix=".utilization")
        assert names == ["link.isl-0-1.utilization"]
        assert "scheduler.events_per_s" in registry.series_logs

    def test_registry_json_export(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.series("s").append(0.0, 1.0)
        path = tmp_path / "metrics.json"
        registry.to_json(str(path))
        data = json.loads(path.read_text())
        assert data["counters"]["c"] == 1
        assert data["series"]["s"]["values"] == [1.0]

    def test_timeserieslog_reexported_from_transport(self):
        # Back-compat: the class moved from repro.transport to repro.obs.
        from repro.transport import TimeSeriesLog as TransportLog
        from repro.transport.base import TimeSeriesLog as BaseLog
        assert TransportLog is TimeSeriesLog
        assert BaseLog is TimeSeriesLog

    def test_timeserieslog_as_dict(self):
        log = TimeSeriesLog()
        log.append(0.0, 1.0)
        log.append(1.0, 2.0)
        assert log.as_dict() == {"times_s": [0.0, 1.0],
                                 "values": [1.0, 2.0]}


class TestUtilizationAccounting:
    def test_raw_ratio_not_clamped(self):
        stats = DeviceStats()
        stats.busy_time_s = 2.0
        assert stats.utilization(1.0) == pytest.approx(2.0)

    def test_overload_emits_warning(self):
        stats = DeviceStats()
        stats.busy_time_s = 1.5
        tracer = RingBufferTracer()
        ratio = stats.utilization(1.0, tracer=tracer,
                                  link_name="isl-0-1")
        assert ratio == pytest.approx(1.5)
        warnings = tracer.events_of(WARNING)
        assert len(warnings) == 1
        assert warnings[0].link == "isl-0-1"
        assert warnings[0].reason == "utilization_above_1"

    def test_no_warning_below_1(self):
        stats = DeviceStats()
        stats.busy_time_s = 0.5
        tracer = RingBufferTracer()
        stats.utilization(1.0, tracer=tracer, link_name="isl-0-1")
        assert tracer.events_of(WARNING) == []


class TestTracedSimulation:
    def test_run_produces_trace_and_series(self, small_network, tmp_path):
        """The acceptance scenario: one traced run yields a JSONL trace
        plus sampled queue-depth/utilization series."""
        tracer = RingBufferTracer()
        sim = PacketSimulator(small_network, tracer=tracer)
        registry = MetricsRegistry()
        sim.attach_probe(registry=registry, interval_s=0.5)
        UdpFlow(0, 3, rate_bps=2_000_000.0).install(sim)
        sim.run(2.0)

        counts = tracer.counts
        assert counts[PKT_ENQUEUE] > 0
        assert counts[PKT_DELIVER] > 0
        assert counts[ROUTING_COMPUTE] > 0
        path = tmp_path / "run.jsonl"
        lines = tracer.to_jsonl(str(path))
        assert lines == len(tracer)
        for line in path.read_text().splitlines()[:10]:
            json.loads(line)

        util = registry.series_names(prefix="link.", suffix=".utilization")
        depth = registry.series_names(prefix="link.", suffix=".queue_depth")
        assert util and depth
        assert "scheduler.events_per_s" in registry.series_logs
        series = registry.series_logs[util[0]]
        assert len(series) >= 3  # sampled at 0.5, 1.0, 1.5, (2.0)

    def test_probe_event_rate_series_is_pinned(self, small_network):
        """The probe reads ``events_processed`` from *inside* an event,
        so the scheduler must count per event, not once per ``run``;
        values recorded before the PR 16 event-loop rewrite."""
        from repro.transport.tcp import TcpFlow
        sim = PacketSimulator(small_network)
        registry = MetricsRegistry()
        sim.attach_probe(registry=registry, interval_s=0.25)
        UdpFlow(0, 3, rate_bps=2_000_000.0).install(sim)
        TcpFlow(1, 4).install(sim)
        sim.run(1.3)
        assert registry.series_logs["scheduler.events_per_s"].as_dict() == {
            "times_s": [0.25, 0.5, 0.75, 1.0, 1.25],
            "values": [4444.0, 11928.0, 18688.0, 18008.0, 2968.0]}
        assert sim.scheduler.events_processed == 14153

    def test_flow_rtt_events_match_flow_log(self, small_network):
        from repro.transport.ping import PingSession
        tracer = RingBufferTracer()
        sim = PacketSimulator(small_network, tracer=tracer)
        ping = PingSession(0, 3, interval_s=0.1).install(sim)
        sim.run(1.0)
        traced = [e.value for e in tracer.events_of(FLOW_RTT)]
        answered = ping.answered()[1]
        assert len(traced) == len(answered)
        np.testing.assert_allclose(traced, answered)

    def test_probe_unknown_link_rejected(self, small_network):
        sim = PacketSimulator(small_network)
        with pytest.raises(ValueError):
            SimulatorProbe(sim, links=["no-such-device"])

    def test_probe_bad_interval_rejected(self, small_network):
        sim = PacketSimulator(small_network)
        with pytest.raises(ValueError):
            SimulatorProbe(sim, interval_s=0.0)

    def test_isl_utilization_from_registry(self):
        registry = MetricsRegistry()
        registry.series("link.isl-3-17.utilization").append(1.0, 0.25)
        registry.series("link.isl-3-17.utilization").append(2.0, 0.75)
        registry.series("link.gsl-9.utilization").append(1.0, 0.5)
        assert isl_utilization_from_registry(registry) == {(3, 17): 0.75}
        assert isl_utilization_from_registry(registry, time_s=1.5) == {
            (3, 17): 0.25}
        assert isl_utilization_from_registry(registry, time_s=0.5) == {}

    def test_utilization_map_from_registry(self, small_network,
                                           small_constellation):
        tracer = RingBufferTracer()
        sim = PacketSimulator(small_network, tracer=tracer)
        registry = MetricsRegistry()
        sim.attach_probe(registry=registry, interval_s=0.5)
        UdpFlow(0, 3, rate_bps=5_000_000.0).install(sim)
        sim.run(2.0)
        from repro.viz.utilization_map import utilization_map_from_registry
        segments = utilization_map_from_registry(
            small_constellation, registry, time_s=2.0)
        assert segments  # the flow crossed at least one ISL
        assert all(0.0 < seg.utilization for seg in segments)


class TestRunReports:
    def test_packet_report(self, small_network):
        tracer = RingBufferTracer()
        sim = PacketSimulator(small_network, tracer=tracer)
        registry = MetricsRegistry()
        sim.attach_probe(registry=registry)
        UdpFlow(0, 3, rate_bps=1_000_000.0).install(sim)
        sim.run(1.0)
        report = sim.report(registry=registry)
        assert report.kind == "packet"
        assert report.summary["packets_delivered"] > 0
        assert report.summary["events_per_wall_s"] > 0.0
        assert report.trace is not None and report.trace["emitted"] > 0
        assert report.metrics is not None
        payload = report.as_dict()
        json.dumps(payload)  # must be JSON-serializable
        assert payload["report_version"] == 1
        assert "packet" in report.describe()

    def test_fluid_reports_unified(self, small_network):
        from repro.fluid.aimd import AimdFluidSimulation
        from repro.fluid.engine import FluidFlow, FluidSimulation
        flows = [FluidFlow(0, 3), FluidFlow(1, 4)]
        for cls, kind in ((FluidSimulation, "fluid.maxmin"),
                          (AimdFluidSimulation, "fluid.aimd")):
            registry = MetricsRegistry()
            result = cls(small_network, flows,
                         metrics=registry).run(3.0, step_s=1.0)
            report = result.report(registry=registry)
            assert report.kind == kind
            assert report.summary["wall_time_s"] > 0.0
            assert report.summary["snapshots"] == 3.0  # t = 0, 1, 2
            assert "fluid.peak_utilization" in registry.series_logs
            json.dumps(report.as_dict())

    def test_report_json_export(self, small_network, tmp_path):
        sim = PacketSimulator(small_network)
        sim.run(0.2)
        path = tmp_path / "report.json"
        sim.report().to_json(str(path))
        data = json.loads(path.read_text())
        assert data["kind"] == "packet"
        assert "trace" not in data  # NullTracer: no trace section


class TestDropReasonPartition:
    def test_drop_reasons_partition_total(self, small_network):
        """Under a congested two-flow scenario every drop lands in exactly
        one reason counter, the counters sum to ``packets_dropped``, and
        the traced drop events agree reason-by-reason."""
        tracer = RingBufferTracer(capacity=100_000)
        sim = PacketSimulator(
            small_network,
            LinkConfig(gsl_rate_bps=500_000.0, gsl_queue_packets=4),
            tracer=tracer)
        # Two UDP flows into the same destination GS, each alone over the
        # GSL capacity: sustained queue drops at the bottleneck.
        UdpFlow(0, 3, rate_bps=2_000_000.0).install(sim)
        UdpFlow(1, 3, rate_bps=2_000_000.0).install(sim)
        # Plus one packet to a registered destination with a flow id
        # nobody listens for: a no-handler drop.
        sim.scheduler.schedule_at(0.0, lambda: sim.send(
            Packet(999, sim.gs_node_id(4), sim.gs_node_id(3),
                   size_bytes=100)))
        sim.run(2.0)

        stats = sim.stats
        assert stats.packets_dropped_queue > 0
        assert stats.packets_dropped_no_handler == 1
        assert stats.packets_dropped == (
            stats.packets_dropped_queue
            + stats.packets_dropped_no_route
            + stats.packets_dropped_ttl
            + stats.packets_dropped_no_handler)

        by_reason = {}
        for event in tracer.events_of(PKT_DROP):
            by_reason[event.reason] = by_reason.get(event.reason, 0) + 1
        assert by_reason.get("queue", 0) == stats.packets_dropped_queue
        assert by_reason.get("no_handler", 0) == \
            stats.packets_dropped_no_handler
        assert sum(by_reason.values()) == stats.packets_dropped

        # Per-device accounting: device-level drops are queue drops.
        device_drops = sum(device.stats.packets_dropped
                           for device in sim.iter_devices())
        assert device_drops == stats.packets_dropped_queue
