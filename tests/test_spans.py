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
    profiled,
    timed,
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


def _spans(profiler):
    """This process's spans: ``[name, start, end or None, parent]``."""
    return profiler.as_dict()["spans"]


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

    def test_null_span_is_one_shared_object(self):
        # The disabled path allocates nothing: every span() of the null
        # profiler, through the ambient helper or not, is the same
        # stateless context.
        _assert_ambient_is_null()
        first = NULL_PROFILER.span("a")
        assert NULL_PROFILER.span("b") is first
        assert spans.span("c") is first
        assert NullSpanProfiler().span("d") is first
        with spans.span("e"):
            pass


class TestSpanProfiler:
    def test_nesting_and_parents(self):
        profiler = SpanProfiler(clock=FakeClock())
        outer = profiler.begin("outer")
        inner = profiler.begin("inner")
        profiler.end(inner)
        profiler.end(outer)
        outer_span, inner_span = _spans(profiler)
        name, outer_start, outer_end, parent = outer_span
        assert (name, parent) == ("outer", -1)
        name, inner_start, inner_end, parent = inner_span
        assert (name, parent) == ("inner", 0)
        assert inner_end > inner_start
        # Inner is fully enclosed in outer.
        assert outer_start < inner_start
        assert inner_end < outer_end

    def test_end_unwinds_abandoned_spans(self):
        # A span abandoned by an exception is closed when its enclosing
        # handle closes — innermost first, all with the same end time.
        clock = FakeClock()
        profiler = SpanProfiler(clock=clock)
        outer = profiler.begin("outer")
        profiler.begin("leaked")
        profiler.end(outer)
        (_, outer_start, outer_end, _), (_, leaked_start, leaked_end, _) = \
            _spans(profiler)
        assert outer_end > outer_start and leaked_end > leaked_start
        assert outer_end == leaked_end

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
        ((_, start, end, _),) = _spans(profiler)
        assert end > start


class TestTimed:
    def test_records_each_call_on_the_ambient_profiler(self):
        @timed("work")
        def work(x, scale=1):
            """Doc kept."""
            return x * scale

        assert work(2, scale=3) == 6  # no profiler: no span, same result
        assert work.__name__ == "work" and work.__doc__ == "Doc kept."
        with profiled(SpanProfiler(clock=FakeClock())) as profiler:
            with spans.span("outer"):
                assert work(4) == 4
        (outer, inner) = _spans(profiler)
        assert (outer[0], outer[3]) == ("outer", -1)
        assert (inner[0], inner[3]) == ("work", 0)

    def test_a_call_that_raises_closes_its_own_span(self):
        @timed("doomed")
        def doomed():
            raise RuntimeError("boom")

        with profiled(SpanProfiler(clock=FakeClock())) as profiler:
            with pytest.raises(RuntimeError):
                doomed()
            with spans.span("after"):
                pass
        (dead, after) = _spans(profiler)
        assert dead[0] == "doomed" and dead[2] is not None
        assert dead[2] > dead[1]
        # The next span is a root, not a child of the dead one.
        assert (after[0], after[3]) == ("after", -1)

    def test_reads_the_profiler_ambient_at_call_time(self):
        @timed("late")
        def late():
            return spans.ACTIVE

        with profiled() as first:
            late()
        with profiled() as second:
            assert late() is second
        assert [span[0] for span in _spans(first)] == ["late"]
        assert [span[0] for span in _spans(second)] == ["late"]


class TestAmbientInstall:
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
        handle = child.begin("topology.timeline")
        child.end(handle)
        parent.adopt(child.as_dict(), chunk_index=0)
        summary = parent.phase_summary()
        assert summary["num_spans"] == 1
        assert summary["phases"][0]["name"] == "topology.timeline"

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
        handle = parent.begin("fluid.advance")
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
        names = {span[0] for span in _spans(profiler)}
        assert {"sweep.total", "sweep.chunk", "sweep.spec_build",
                "topology.timeline"} <= names

    def test_worker_spans_are_adopted_in_chunk_order(self, small_network):
        # Each worker records on its own profiler, installed through
        # profiled(); the parent adopts the trees in chunk order, each
        # with sweep.chunk at its root around the build and the walk.
        from repro.sweep import NetworkSpec, sweep_timelines

        spec = NetworkSpec.from_network(small_network)
        times = np.array([0.0, 5.0, 10.0, 15.0, 20.0, 25.0])
        with profiled() as profiler:
            sweep_timelines(spec, [(0, 1)], times, workers=2)
        _assert_ambient_is_null()
        children = profiler.children
        assert [meta["chunk_index"] for _, meta in children] == [0, 1]
        assert [(meta["snapshot_start"], meta["snapshot_stop"])
                for _, meta in children] == [(0, 3), (3, 6)]
        for index, (profile, _) in enumerate(children):
            assert profile["label"] == f"sweep worker {index}"
            recorded = profile["spans"]
            names = [span[0] for span in recorded]
            root = names.index("sweep.chunk")
            assert recorded[root][3] == -1
            for child in ("sweep.spec_build", "topology.timeline"):
                assert recorded[names.index(child)][3] == root
        parent_names = [span[0] for span in _spans(profiler)]
        assert parent_names[0] == "sweep.total"
        assert "sweep.chunk" not in parent_names


class TestRoutingSpans:
    def test_whatif_step_names_its_repair_and_its_walk(self, small_network):
        import dataclasses

        from repro.routing.incremental import IncrementalRouter

        base = small_network.snapshot(0.0)
        keep = np.ones(len(base.isl_pairs), dtype=bool)
        keep[[3, 17, 40]] = False
        faulted = dataclasses.replace(base, isl_pairs=base.isl_pairs[keep],
                                      isl_lengths_m=base.isl_lengths_m[keep])
        pairs = [(0, 1), (3, 2), (1, 4)]
        router = IncrementalRouter(small_network)
        router.paths_many(base, pairs)
        with profiled() as profiler:
            router.paths_many(faulted, pairs)
        recorded = _spans(profiler)
        names = [span[0] for span in recorded]
        assert names.count("routing.paths") == 1
        assert "routing.incremental_repair" in names
        # The walk is the update's sibling, not part of it.
        walk = recorded[names.index("routing.paths")]
        assert walk[3] == -1


class TestFluidSpans:
    def test_subevent_resolves_are_named_under_the_step(self,
                                                        small_network):
        """A dynamic step's re-solves run inside ``fluid.subevents``, a
        child of ``fluid.advance``; a static step makes none."""
        from repro.fluid.engine import FluidFlow, FluidSimulation

        flows = [FluidFlow(0, 3, size_bytes=200_000.0),
                 FluidFlow(1, 4, start_s=0.4, size_bytes=300_000.0)]
        with profiled() as profiler:
            FluidSimulation(small_network, flows).run(2.0, step_s=1.0)
        recorded = _spans(profiler)
        names = [span[0] for span in recorded]
        subevents = [span for span in recorded if span[0] == "fluid.subevents"]
        assert len(subevents) == 2
        for span in subevents:
            assert names[span[3]] == "fluid.advance"
        assert any(names[span[3]] == "fluid.subevents"
                   for span in recorded if span[0] == "fluid.waterfill")
        with profiled() as profiler:
            FluidSimulation(small_network, [FluidFlow(0, 3)]).run(2.0)
        assert "fluid.subevents" not in {span[0] for span in
                                         _spans(profiler)}


class TestCli:
    def test_profile_command_exports_trace_report_metrics(self, tmp_path,
                                                          capsys):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        report = tmp_path / "report.json"
        metrics = tmp_path / "metrics.json"
        code = main(["report", "S1", "New York", "London",
                     "--engine", "fluid", "--duration", "4",
                     "--step", "2", "--profile-out", str(trace),
                     "-o", str(report),
                     "--metrics-out", str(metrics)])
        assert code == 0
        _assert_ambient_is_null()  # profiler must not leak past the run
        document = json.loads(trace.read_text())
        _assert_trace_event_schema(document)
        names = {event["name"] for event in document["traceEvents"]}
        assert "fluid.advance" in names
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
