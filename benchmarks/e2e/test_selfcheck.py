"""Self-check of the end-to-end benchmark harness (``make bench`` collects it).

Checks the harness, not the product: span self-time arithmetic, the
percentile rule, ``compare.py``'s verdicts on synthetic records, and a
seconds-long run of every workload whose printed metric names must equal
the ones ``BENCHMARK.json`` declares.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from stats import percentile, quartile_spread  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


# -- span arithmetic ---------------------------------------------------------

def _table(rows):
    """rows: (name, start, end, parent)."""
    names = sorted({row[0] for row in rows})
    return layers.SpanTable(
        names, np.array([names.index(row[0]) for row in rows]),
        np.array([row[1] for row in rows], dtype=float),
        np.array([row[2] for row in rows], dtype=float),
        np.array([row[3] for row in rows]),
        np.zeros(len(rows), dtype=np.int64), np.zeros(len(rows)))


def test_self_time_subtracts_children_once():
    table = _table([
        (layers.BODY, 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("a", 2.0, 4.0, 1),    # recursion: a inside a
        ("b", 6.0, 9.0, 0),
        ("c", 6.5, 7.0, 3),
    ])
    assert table.self_s.tolist() == [3.0, 2.0, 2.0, 2.5, 0.5]
    body = table.within(layers.BODY)
    assert not body[0] and body[1:].all()
    a = table.layer("a", body)
    # Recursive spans never double-count: outer self + inner self = 4 s.
    assert (a["self_s"], a["calls"]) == (4.0, 2)
    assert table.self_s.sum() == table.duration[0]


def test_within_sees_other_threads_but_not_other_phases():
    table = _table([
        (layers.SETUP, 0.0, 1.0, -1),
        ("a", 0.2, 0.8, 0),
        (layers.BODY, 1.0, 5.0, -1),
        ("a", 2.0, 3.0, -1),   # server thread: no parent, inside the body
    ])
    assert table.layer("a", table.within(layers.BODY))["calls"] == 1
    assert table.layer("a", table.within(layers.SETUP))["self_s"] == \
        pytest.approx(0.6)


def test_recorder_nesting_threads_and_overflow():
    import threading
    recorder = layers.SpanRecorder(capacity=4)

    def other_thread():
        with recorder.span("other"):
            pass

    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        with recorder.span("inner"):
            with recorder.span("dropped"):   # fifth span: over capacity
                pass
    table = recorder.table()
    assert [table.names[i] for i in table.name] == [
        "outer", "inner", "other", "inner"]
    assert table.parent.tolist() == [-1, 0, -1, 0]
    assert recorder.dropped == 1
    assert (table.duration >= 0).all() and (table.self_s >= 0).all()


def test_missing_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", [
        ("x.gone", "repro.topology.network", "LeoNetwork.no_such", None),
        ("x.gone", "repro.no_such_module", "f", None)])
    missing = layers.install(layers.SpanRecorder(capacity=8))
    assert missing == ["repro.topology.network.LeoNetwork.no_such",
                       "repro.no_such_module.f"]


# -- statistics --------------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert percentile(list(range(100)), 95) is None
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0    # the median always
    assert percentile([], 50) is None
    assert quartile_spread([1.0]) is None
    assert quartile_spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)


# -- compare.py --------------------------------------------------------------

def test_verdicts():
    tight_a = [10.0, 10.1, 9.9]
    assert compare.verdict(tight_a, [10.2, 10.3, 10.1], "lower", 0.10)[0] \
        == "unchanged"
    assert compare.verdict(tight_a, [11.5, 11.6, 11.4], "lower", 0.10)[0] \
        == "regressed"
    assert compare.verdict(tight_a, [9.0, 9.1, 8.9], "lower", 0.10)[0] \
        == "improved"
    # Direction: for a "higher" metric the same numbers flip.
    assert compare.verdict(tight_a, [9.0, 9.1, 8.9], "higher", 0.05)[0] \
        == "regressed"
    assert compare.verdict(tight_a, [11.5, 11.6, 11.4], "higher", 0.10)[0] \
        == "improved"
    # Spread wider than the bound: unresolved, unless the sides separate.
    noisy = [8.0, 10.0, 12.0]
    assert compare.verdict(noisy, [9.0, 10.5, 12.5], "lower", 0.10)[0] \
        == "unresolved"
    assert compare.verdict(noisy, [5.0, 6.0, 7.0], "lower", 0.10)[0] \
        == "improved"
    assert compare.verdict(noisy, [13.0, 15.0, 17.0], "lower", 0.10)[0] \
        == "regressed"


def _record(cpu_samples, failed=0, digest="d", nproc=2):
    return {"machine": {"cpu_model": "x", "nproc": nproc},
            "workloads": {"w": {
                "metrics": {"cpu_s": {"samples": cpu_samples}},
                "attempted": 10, "failed": failed, "sim_digest": digest}}}


def test_compare_records():
    rows = compare.compare(_record([1.0, 1.01, 0.99]),
                           _record([1.3, 1.31, 1.29], failed=1, digest="e"),
                           SPEC)
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"cpu_s": "regressed", "failed_frac": "regressed",
                        "sim_digest": "CHANGED"}
    with pytest.raises(ValueError, match="different machines"):
        compare.compare(_record([1.0, 1.0]), _record([1.0, 1.0], nproc=8),
                        SPEC)


# -- every workload, seconds-long ---------------------------------------------

def _printed_names(result, declared):
    units = run.metric_units(SPEC)
    line = json.loads(run.contract_line(
        result, [metric["name"] for metric in declared], units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    return line["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run(workload):
    result = run.measure(workload, seed=0, seconds=1.0, trace=1, tiny=True)
    assert result["failed"] == 0, result["checks"]
    assert result["missing_targets"] == []
    # Every per-layer metric the harness computes is declared, and back.
    assert set(result["metrics"]) == {
        metric["name"] for metric in SPEC["per_layer"]}
    printed = _printed_names(result, SPEC["per_layer"])
    assert all(isinstance(entry["value"], (int, float))
               for entry in printed.values())
    layer = result["metrics"]
    assert layer["trace.dropped_spans"] == 0
    # The splits the README predicts: which workload bypasses which layer.
    if workload == "fault_whatif":
        assert layer["topology.snapshot.calls"] == 0
        assert layer["routing.repair_frac"] == 1.0
    if workload in ("packet_fig2", "rtt_sweep"):
        assert layer["fluid.waterfill.calls"] == 0
        assert layer["service.dispatch.self_s"] == 0
    if workload == "fluid_gravity":
        assert layer["simulation.events"] == 0
        assert layer["fluid.solves_per_step"] == 1.0
    if workload == "packet_fig2":
        assert layer["simulation.events"] > 0
        assert layer["transport.tcp.calls"] > 0
    if workload == "rtt_sweep_w2":
        assert layer["sweep.total.self_s"] > 0
        assert layer["routing.route_to_many.calls"] > 0  # from the workers
    if workload == "service_session":
        assert layer["service.cmd_failed"] == 0
        assert layer["service.checkpoint_bytes"] > 0


def test_tiny_untraced_run_prints_end_to_end_metrics():
    result = run.measure("rtt_sweep", seed=0, seconds=1.0, trace=0,
                         tiny=True)
    printed = _printed_names(result, SPEC["end_to_end"])
    assert list(printed) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(entry["value"] > 0 for entry in printed.values())
