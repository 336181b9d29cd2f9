"""End-to-end benchmark of the Hypatia reproduction: one command.

Two ways to call it, one code path underneath:

* **One measurement** (the ``BENCHMARK.json`` contract)::

      python3 benchmarks/e2e/run.py --workload rtt_sweep --seed 0 \\
          --seconds 5 --trace 0

  prints every metric by name with its unit and, as the last line, one
  JSON object ``{"correct", "attempted", "failed", "metrics"}``.
  ``--trace 0`` reports the end-to-end metrics (tracing off), ``--trace 1``
  the per-layer metrics of a traced run next to an untraced reference.

* **The whole suite**, for a record that ``compare.py`` can judge::

      python3 benchmarks/e2e/run.py [--seed S] [--repeats N]
          [--workloads a,b] [--trace] [--out FILE]

  runs every workload ``N`` times (default 3), reports each end-to-end
  metric as the median over repeats (minimum and all samples are kept),
  optionally adds one traced pass, and appends the record to
  ``benchmarks/e2e/results/``.

Every measurement runs in fresh worker processes (``worker.py``); this
driver only starts them, one at a time, and waits for each.  Exit status
is non-zero when any correctness check or driver operation failed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(HERE))

from stats import percentile_ms, quartile_spread  # noqa: E402

#: Worker processes per set-up measurement; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: A worker that has not finished by then is killed (contract: 180 s/run).
WORKER_TIMEOUT_S = 150.0


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds live there."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def versions_fingerprint() -> str:
    """What simulated outputs may legitimately depend on (golden key)."""
    return "py{}.{}-numpy{}-scipy{}".format(
        *sys.version_info[:2], metadata.version("numpy"),
        metadata.version("scipy"))


def machine_fingerprint() -> Dict[str, Any]:
    """What timings depend on; records from different machines are not
    comparable and ``compare.py`` refuses them."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count(),
            "machine": platform.machine(), "versions": versions_fingerprint(),
            "networkx": metadata.version("networkx")}


def run_worker(workload: str, seed: int, seconds: float, mode: str,
               trace: int, tiny: bool, scratch: Path) -> Dict[str, Any]:
    """One fresh worker process; raises if it fails or overruns."""
    out = scratch / f"{mode}-{trace}-{time.monotonic_ns()}.json"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode,
               "--trace", str(trace), "--tiny", str(int(tiny)),
               "--scratch", str(scratch), "--out", str(out)]
    # subprocess.run kills and reaps the worker when the timeout expires.
    subprocess.run(command, check=True, timeout=WORKER_TIMEOUT_S,
                   cwd=str(ROOT), stdout=sys.stderr)
    return json.loads(out.read_text())


def golden_check(workload: str, seed: int, seconds: float, tiny: bool,
                 digest: str) -> Optional[List[Any]]:
    """Compare a run's ``sim_digest`` with the pinned one, if any.

    A mismatch under the same python/numpy/scipy fingerprint is a failed
    check; under a different one only a warning (float results may
    legitimately differ across library versions)."""
    pinned = json.loads(GOLDEN.read_text()).get(workload, {}).get(
        golden_key(seed, seconds, tiny))
    if not pinned:
        return None
    fingerprint = versions_fingerprint()
    if fingerprint in pinned:
        return ["golden_digest", pinned[fingerprint] == digest,
                f"pinned for {fingerprint}"]
    if digest not in pinned.values():
        print(f"warning: {workload} sim_digest differs from the digests "
              f"pinned for other versions ({sorted(pinned)})",
              file=sys.stderr)
    return None


def golden_key(seed: int, seconds: float, tiny: bool) -> str:
    return f"seed={seed},seconds={seconds:g}" + (",tiny" if tiny else "")


def measure(workload: str, seed: int, seconds: float, trace: int,
            tiny: bool = False) -> Dict[str, Any]:
    """One measurement of one workload.

    ``trace=0``: one full untraced worker plus set-up-only workers; the
    metrics are the end-to-end ones.  ``trace=1``: an untraced reference
    worker and a traced worker; the metrics are the per-layer ones.
    """
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=RESULTS))
    try:
        reference = run_worker(workload, seed, seconds, "full", 0, tiny,
                               scratch)
        if trace:
            traced = run_worker(workload, seed, seconds, "full", 1, tiny,
                                scratch)
            metrics = per_layer_metrics(reference, traced)
            traced["checks"] = [[f"traced:{name}", ok, detail]
                                for name, ok, detail in traced["checks"]]
            # The Chrome trace-event file outlives the scratch directory.
            shutil.copyfile(traced["trace_file"],
                            RESULTS / f"trace-{workload}.json")
            runs = [reference, traced]
        else:
            setups = [reference["setup_s"]] + [
                run_worker(workload, seed, seconds, "setup", 0, tiny,
                           scratch)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)]
            metrics = {
                "setup_s": statistics.median(setups),
                "cpu_s": reference["cpu_s"],
                "real_time_factor":
                    reference["sim_seconds"] / reference["cpu_s"],
                "peak_rss_mb": reference["peak_rss_mb"],
            }
            runs = [reference]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = [check for run in runs for check in run["checks"]]
    if trace:
        checks.append(["traced_digest",
                       traced["sim_digest"] == reference["sim_digest"],
                       "tracing must not change simulated outputs"])
    pinned = golden_check(workload, seed, seconds, tiny,
                          reference["sim_digest"])
    if pinned is not None:
        checks.append(pinned)
    attempted = sum(run["operations"] for run in runs) + len(checks)
    failed = (sum(run["failed_operations"] for run in runs)
              + sum(not ok for _, ok, _ in checks))
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "metrics": metrics, "attempted": attempted,
            "failed": failed, "checks": checks,
            "sim_digest": reference["sim_digest"],
            "wall_s": reference["wall_s"],
            "missing_targets": traced["missing_targets"] if trace else []}


def per_layer_metrics(reference: Dict[str, Any], traced: Dict[str, Any]
                      ) -> Dict[str, Optional[float]]:
    """The per-layer table: span self times from the traced worker, work
    counts and client-observed latencies from the untraced reference."""
    metrics: Dict[str, Optional[float]] = dict(traced["layers"])
    counters, extras = reference["counters"], reference["extras"]
    steps = counters.get("fluid_steps", 0)
    solves = metrics.get("fluid.waterfill.calls")
    metrics["fluid.solves_per_step"] = (
        solves / steps if steps and solves is not None else 0.0)
    events = counters.get("events", 0)
    metrics["simulation.events"] = events
    metrics["simulation.events_per_s"] = events / reference["cpu_s"]
    metrics["traffic.flows"] = counters.get("flows", 0)
    metrics["faults.events"] = counters.get("fault_events", 0)

    def latency(command: str) -> List[float]:
        return extras.get(f"latency_s.{command}", [])

    metrics["service.advance.p50_ms"] = percentile_ms(latency("advance"), 50)
    metrics["service.advance.p90_ms"] = percentile_ms(latency("advance"), 90)
    metrics["service.attach.p50_ms"] = percentile_ms(
        latency("attach_workload"), 50)
    metrics["service.inject.ms"] = percentile_ms(latency("inject_fault"), 50)
    metrics["service.report.ms"] = percentile_ms(latency("report"), 50)
    metrics["service.checkpoint.p50_ms"] = percentile_ms(
        latency("checkpoint"), 50)
    metrics["service.checkpoint_bytes"] = extras.get("checkpoint_bytes", 0)
    metrics["service.resume.s"] = extras.get("resume_s")
    metrics["service.cmd_failed"] = extras.get("cmd_failed", 0)

    # rtt_sweep_w2 only: its timed units are the windows.
    serial = extras.get("serial_window_wall_s")
    metrics["sweep.parallel_efficiency"] = (
        serial * reference["units"] / (2.0 * reference["wall_s"])
        if serial else None)
    metrics["trace.overhead_frac"] = (
        traced["cpu_s"] / reference["cpu_s"] - 1.0)
    # How much slower than reference speed the machine ran the body.
    metrics["trace.interference_frac"] = (
        reference["raw_cpu_s"] / reference["cpu_s"] - 1.0)
    metrics["cpu.raw_s"] = reference["raw_cpu_s"]
    metrics["wall.body_s"] = reference["wall_s"]
    metrics["wall.real_time_factor"] = (
        reference["sim_seconds"] / reference["wall_s"])
    return metrics


def print_measurement(result: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"seconds={result['seconds']:g}  trace={result['trace']}")
    for name, value in result["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<36s} {shown:>14s} {units.get(name, '')}")
    for name, ok, detail in result["checks"]:
        print(f"  check {name:<40s} {'ok' if ok else 'FAILED':>6s}  {detail}")
    print(f"  sim_digest {result['sim_digest']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"body wall {result['wall_s']:.3f} s")


def contract_line(result: Dict[str, Any], names: List[str],
                  units: Dict[str, str]) -> str:
    """The last line of a single measurement: exactly the declared metric
    names; a metric that does not apply (``null``) is printed as 0."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"].get(name) or 0,
                           "unit": units[name]} for name in names},
    })


# ---------------------------------------------------------------------------
# Suite mode
# ---------------------------------------------------------------------------

def run_suite(workloads: List[str], seed: int, seconds: float, repeats: int,
              trace: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    units = metric_units(spec)
    record: Dict[str, Any] = {
        "schema": 1,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": machine_fingerprint(),
        "loadavg_1m": os.getloadavg()[0],
        "seed": seed, "seconds": seconds, "repeats": repeats,
        "workloads": {},
    }
    for workload in workloads:
        samples = []
        for _ in range(repeats):
            result = measure(workload, seed, seconds, trace=0)
            print_measurement(result, units)
            samples.append(result)
        entry: Dict[str, Any] = {
            "metrics": {
                name: {
                    "unit": units[name],
                    "median": statistics.median(
                        s["metrics"][name] for s in samples),
                    "min": min(s["metrics"][name] for s in samples),
                    "spread": quartile_spread(
                        [s["metrics"][name] for s in samples]),
                    "samples": [s["metrics"][name] for s in samples],
                } for name in samples[0]["metrics"]},
            "attempted": sum(s["attempted"] for s in samples),
            "failed": sum(s["failed"] for s in samples),
            "sim_digest": samples[0]["sim_digest"],
            "failed_checks": [check for s in samples
                              for check in s["checks"] if not check[1]],
            "layers": None,
        }
        if len({s["sim_digest"] for s in samples}) != 1:
            entry["failed"] += 1
            entry["failed_checks"].append(
                ["digest_repeats", False,
                 "sim_digest differs between repeats of one seed"])
        if trace:
            traced = measure(workload, seed, seconds, trace=1)
            print_measurement(traced, units)
            entry["layers"] = traced["metrics"]
            entry["missing_targets"] = traced["missing_targets"]
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["failed_checks"] += [c for c in traced["checks"]
                                       if not c[1]]
        record["workloads"][workload] = entry

    done = record["workloads"]
    if {"rtt_sweep", "rtt_sweep_w2"} <= set(done):
        # Same inputs through the serial walk and the sharded sweep.
        same = (done["rtt_sweep"]["sim_digest"]
                == done["rtt_sweep_w2"]["sim_digest"])
        done["rtt_sweep_w2"]["attempted"] += 1
        if not same:
            done["rtt_sweep_w2"]["failed"] += 1
            done["rtt_sweep_w2"]["failed_checks"].append(
                ["digest_equals_rtt_sweep", False, ""])
    return record


def print_summary(record: Dict[str, Any]) -> None:
    print("\n== summary (median over "
          f"{record['repeats']} repeats; spread = IQR / median)")
    for workload, entry in record["workloads"].items():
        for name, stat in entry["metrics"].items():
            spread = ("" if stat["spread"] is None
                      else f"  spread {100 * stat['spread']:.1f} %")
            print(f"  {workload:<16s} {name:<18s} {stat['median']:>12.6g} "
                  f"{stat['unit']:<12s} min {stat['min']:.6g}{spread}")
        print(f"  {workload:<16s} failed {entry['failed']} of "
              f"{entry['attempted']}  digest {entry['sim_digest'][:16]}")


def metric_units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def update_golden(record: Dict[str, Any]) -> None:
    golden = json.loads(GOLDEN.read_text())
    key = golden_key(record["seed"], record["seconds"], False)
    for workload, entry in record["workloads"].items():
        golden.setdefault(workload, {}).setdefault(key, {})[
            record["machine"]["versions"]] = entry["sim_digest"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="measure this one workload once (contract mode)")
    parser.add_argument("--workloads", default=",".join(names),
                        help="suite mode: comma-separated subset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="target body length; sizes the simulated work")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path,
                        help="suite mode: write the record here instead of "
                             "benchmarks/e2e/results/")
    parser.add_argument("--update-golden", action="store_true",
                        help="suite mode: pin this run's sim_digests")
    args = parser.parse_args(argv)
    units = metric_units(spec)

    if args.workload:
        try:
            result = measure(args.workload, args.seed, args.seconds,
                             args.trace)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as error:
            # No result line: the run did not measure anything.
            print(f"worker failed: {error}", file=sys.stderr)
            return 1
        print_measurement(result, units)
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        print(contract_line(result, [m["name"] for m in declared], units))
        return 0 if result["failed"] == 0 else 1

    chosen = [name for name in args.workloads.split(",") if name]
    unknown = sorted(set(chosen) - set(names))
    if unknown or args.repeats < 1:
        parser.error(f"unknown workloads {unknown}" if unknown
                     else "--repeats must be at least 1")
    record = run_suite(chosen, args.seed, args.seconds, args.repeats,
                       bool(args.trace), spec)
    print_summary(record)
    out = args.out
    if out is None:
        RESULTS.mkdir(exist_ok=True)
        stamp = record["timestamp"].replace(":", "").replace("+0000", "Z")
        out = RESULTS / f"e2e-{stamp}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {out}")
    if args.update_golden:
        update_golden(record)
    failed = sum(entry["failed"] for entry in record["workloads"].values())
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
