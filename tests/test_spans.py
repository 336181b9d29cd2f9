"""Tests for the span profiler and trace export."""

import json

import numpy as np
import pytest

from repro.obs import spans
from repro.obs.spans import (
    MAIN_PID,
    NULL_PROFILER,
    NullSpanProfiler,
    SpanProfiler,
    format_phases,
    install,
    profiled,
    uninstall,
)


class FakeClock:
    """Deterministic monotonic clock: each call advances by ``tick``."""

    def __init__(self, tick: float = 1.0) -> None:
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick
        return value


def _assert_ambient_is_null():
    assert spans.ACTIVE is NULL_PROFILER
    assert not spans.ACTIVE.enabled


class TestNullProfiler:
    def test_disabled_and_noop(self):
        profiler = NullSpanProfiler()
        assert profiler.enabled is False
        handle = profiler.begin("anything")
        assert handle == -1
        profiler.end(handle)  # must not raise
        with profiler.span("scoped"):
            pass

    def test_ambient_default_is_null(self):
        _assert_ambient_is_null()


class TestSpanProfiler:
    def test_nesting_and_parents(self):
        profiler = SpanProfiler(clock=FakeClock())
        outer = profiler.begin("outer")
        inner = profiler.begin("inner")
        profiler.end(inner)
        profiler.end(outer)
        records = profiler.records()
        assert [r.name for r in records] == ["outer", "inner"]
        assert records[0].parent == -1
        assert records[1].parent == 0
        assert records[1].duration_s > 0
        # Inner is fully enclosed in outer.
        assert records[0].start_s < records[1].start_s
        assert records[1].end_s < records[0].end_s

    def test_end_unwinds_abandoned_spans(self):
        # A span abandoned by an exception is closed when its enclosing
        # handle closes — innermost first, all with the same end time.
        clock = FakeClock()
        profiler = SpanProfiler(clock=clock)
        outer = profiler.begin("outer")
        profiler.begin("leaked")
        profiler.end(outer)
        records = profiler.records()
        assert all(r.duration_s > 0 for r in records)
        assert records[0].end_s == records[1].end_s

    def test_end_unknown_handle_rejected(self):
        profiler = SpanProfiler(clock=FakeClock())
        handle = profiler.begin("only")
        profiler.end(handle)
        with pytest.raises(ValueError):
            profiler.end(handle)

    def test_capacity_bounds_and_counts_dropped(self):
        profiler = SpanProfiler(capacity=2, clock=FakeClock())
        first = profiler.begin("a")
        second = profiler.begin("b")
        third = profiler.begin("c")
        assert third == -1
        assert profiler.dropped == 1
        profiler.end(third)  # no-op
        profiler.end(second)
        profiler.end(first)
        assert profiler.num_spans == 2

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanProfiler(capacity=0)

    def test_span_context_manager_closes_on_exception(self):
        profiler = SpanProfiler(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with profiler.span("doomed"):
                raise RuntimeError("boom")
        (record,) = profiler.records()
        assert record.duration_s > 0


class TestAmbientInstall:
    def test_install_uninstall_round_trip(self):
        _assert_ambient_is_null()
        profiler = install()
        try:
            assert spans.ACTIVE is profiler
            assert profiler.enabled
        finally:
            previous = uninstall()
        assert previous is profiler
        _assert_ambient_is_null()

    def test_profiled_restores_previous_even_on_error(self):
        _assert_ambient_is_null()
        with pytest.raises(RuntimeError):
            with profiled() as profiler:
                assert spans.ACTIVE is profiler
                raise RuntimeError("boom")
        _assert_ambient_is_null()

    def test_profiled_nested_restores_outer(self):
        with profiled() as outer:
            with profiled() as inner:
                assert spans.ACTIVE is inner
            assert spans.ACTIVE is outer
        _assert_ambient_is_null()


class TestPhaseSummary:
    def test_self_time_excludes_children(self):
        clock = FakeClock(tick=1.0)
        profiler = SpanProfiler(clock=clock)
        outer = profiler.begin("solve")      # start 1
        inner = profiler.begin("kernel")     # start 2
        profiler.end(inner)                  # end 3
        profiler.end(outer)                  # end 4
        summary = profiler.phase_summary()
        by_name = {p["name"]: p for p in summary["phases"]}
        assert summary["num_spans"] == 2
        assert by_name["solve"]["total_s"] == pytest.approx(3.0)
        assert by_name["kernel"]["total_s"] == pytest.approx(1.0)
        assert by_name["solve"]["self_s"] == pytest.approx(2.0)
        assert by_name["kernel"]["self_s"] == pytest.approx(1.0)

    def test_sorted_by_descending_self_time(self):
        clock = FakeClock(tick=1.0)
        profiler = SpanProfiler(clock=clock)
        short = profiler.begin("short")
        profiler.end(short)
        long = profiler.begin("long")
        clock.now += 10.0
        profiler.end(long)
        names = [p["name"] for p in profiler.phase_summary()["phases"]]
        assert names == ["long", "short"]

    def test_aggregates_adopted_children(self):
        parent = SpanProfiler(clock=FakeClock())
        child = SpanProfiler(label="worker", clock=FakeClock())
        handle = child.begin("sweep.compute")
        child.end(handle)
        parent.adopt(child.as_dict(), chunk_index=0)
        summary = parent.phase_summary()
        assert summary["num_spans"] == 1
        assert summary["phases"][0]["name"] == "sweep.compute"

    def test_format_phases_lines(self):
        profiler = SpanProfiler(clock=FakeClock())
        handle = profiler.begin("solve")
        profiler.end(handle)
        lines = format_phases(profiler.phase_summary())
        assert "top phases" in lines[0]
        assert any("solve" in line for line in lines[1:])


def _assert_trace_event_schema(document):
    """Satellite contract: every event carries ph/ts/pid/tid/name."""
    assert isinstance(document["traceEvents"], list)
    for event in document["traceEvents"]:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in event, f"event {event} lacks {key!r}"
        assert event["ph"] in ("X", "M")
        assert isinstance(event["ts"], (int, float))


class TestChromeTrace:
    def test_schema_and_process_metadata(self):
        parent = SpanProfiler(clock=FakeClock())
        handle = parent.begin("fluid.run")
        parent.end(handle)
        child = SpanProfiler(label="sweep worker 0", clock=FakeClock())
        chunk = child.begin("sweep.chunk")
        child.end(chunk)
        parent.adopt(child.as_dict(), chunk_index=0,
                     snapshot_start=0, snapshot_stop=5)
        document = parent.chrome_trace(metadata={"provenance": {"x": 1}})
        _assert_trace_event_schema(document)
        # Synthetic pids: parent is MAIN_PID, first child MAIN_PID + 1.
        pids = {event["pid"] for event in document["traceEvents"]}
        assert pids == {MAIN_PID, MAIN_PID + 1}
        # Process names carry the chunk's snapshot bounds.
        names = [event["args"]["name"]
                 for event in document["traceEvents"]
                 if event["ph"] == "M"]
        assert any("[snapshots 0:5)" in name for name in names)
        # Real OS pids appear only in metadata, never in events.
        processes = document["metadata"]["processes"]
        assert all("os_pid" in process for process in processes)
        assert processes[1]["chunk_index"] == 0
        assert document["metadata"]["provenance"] == {"x": 1}

    def test_write_round_trips_as_json(self, tmp_path):
        profiler = SpanProfiler(clock=FakeClock())
        handle = profiler.begin("solve")
        profiler.end(handle)
        path = tmp_path / "trace.json"
        count = profiler.write_chrome_trace(str(path))
        document = json.loads(path.read_text())
        assert count == len(document["traceEvents"]) == 2
        _assert_trace_event_schema(document)

    def test_open_span_exports_zero_duration(self):
        profiler = SpanProfiler(clock=FakeClock())
        profiler.begin("never-closed")
        (event,) = [e for e in profiler.chrome_trace()["traceEvents"]
                    if e["ph"] == "X"]
        assert event["dur"] == 0.0


def _span_key_set(document):
    """The deterministic identity of a trace: events minus wall-times."""
    return sorted((event["name"], event["ph"], event["pid"], event["tid"])
                  for event in document["traceEvents"])


class TestSweepProfileMerge:
    def test_parallel_merge_is_deterministic(self, small_network):
        # Two profiled workers=2 sweeps of the same scenario must export
        # the identical span set (only ts/dur may differ) — acceptance
        # criterion of the profiling tentpole.
        from repro.sweep import NetworkSpec, sweep_timelines

        spec = NetworkSpec.from_network(small_network)
        times = np.array([0.0, 5.0, 10.0, 15.0])
        documents = []
        for _ in range(2):
            with profiled() as profiler:
                result = sweep_timelines(spec, [(0, 1)], times, workers=2)
            assert result[(0, 1)].times_s.shape == (4,)
            documents.append(profiler.chrome_trace())
        _assert_trace_event_schema(documents[0])
        assert _span_key_set(documents[0]) == _span_key_set(documents[1])
        # One process row per worker chunk plus the parent.
        pids = {event["pid"] for event in documents[0]["traceEvents"]}
        assert pids == {MAIN_PID, MAIN_PID + 1, MAIN_PID + 2}
        # Worker spans were adopted with chunk identity.
        processes = documents[0]["metadata"]["processes"]
        assert [p.get("chunk_index") for p in processes] == [None, 0, 1]
        assert processes[1]["snapshot_start"] == 0
        assert processes[2]["snapshot_stop"] == 4

    def test_serial_sweep_records_on_ambient_profiler(self, small_network):
        from repro.sweep import NetworkSpec, sweep_timelines

        spec = NetworkSpec.from_network(small_network)
        with profiled() as profiler:
            sweep_timelines(spec, [(0, 1)], np.array([0.0, 5.0]), workers=1)
        names = {record.name for record in profiler.records()}
        assert {"sweep.chunk", "sweep.build", "sweep.compute"} <= names


class TestCli:
    def test_profile_command_exports_trace_report_metrics(self, tmp_path,
                                                          capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        metrics = tmp_path / "metrics.json"
        code = main(["profile", "S1", "New York", "London",
                     "--engine", "maxmin", "--duration", "4",
                     "--step", "2", "-o", str(trace),
                     "--report-out", str(report),
                     "--metrics-out", str(metrics)])
        assert code == 0
        _assert_ambient_is_null()  # profiler must not leak past the run
        document = json.loads(trace.read_text())
        _assert_trace_event_schema(document)
        names = {event["name"] for event in document["traceEvents"]}
        assert "fluid.run" in names
        assert "routing.route_to_many" in names
        # Satellite: provenance header in the run report.
        payload = json.loads(report.read_text())
        provenance = payload["provenance"]
        assert provenance["engine"] == "maxmin"
        assert provenance["kernel"] == "vectorized"
        assert provenance["shell"] == "S1"
        assert provenance["duration_s"] == 4.0
        # Satellite: phases section folded into the report.
        assert payload["phases"]["num_spans"] > 0
        # Satellite: --metrics-out dumps the registry.
        dumped = json.loads(metrics.read_text())
        assert "counters" in dumped and "series" in dumped
        out = capsys.readouterr().out
        assert "top phases" in out
        assert "provenance:" in out
