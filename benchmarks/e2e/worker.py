"""One workload in one fresh process: set-up, timed body, verification.

``run.py`` starts this file once per measurement so that no run inherits
caches, heap growth or imported modules from another.  Time is CPU time
(this process plus the children it reaped): on a shared 2-core VM the
hypervisor's steal makes wall time vary several-fold between identical
runs, and every unit of the body is further divided by the machine's
momentary slowdown (``workloads.Calibration``).  The raw CPU total and the
wall time are recorded next to the calibrated figure, ungated.

Not a user entry point — use ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "full"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (counted in set-up time; fails without src/)
    import layers
    from workloads import WORKLOADS, calibrated_seconds, cpu_seconds

    recorder, missing = None, []
    phase = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        recorder = layers.SpanRecorder(child_dir=args.scratch)
        missing = layers.install(recorder)
        phase = recorder.span
    workload = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.tiny), args.scratch, phase)

    # Set-up time counts from process start (interpreter, imports, network
    # and workload construction, one warm-up step), at reference speed.
    slowdown = workload.calibration.slowdown()
    with phase(layers.SETUP):
        workload.setup()
    setup_cpu_s = cpu_seconds()
    slowdown = 0.5 * (slowdown + workload.calibration.slowdown())
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": setup_cpu_s / slowdown}
    if args.mode == "full":
        gc.collect()
        if recorder is not None:
            recorder.body_starts()
        wall_start = time.perf_counter()
        with phase(layers.BODY):
            workload.body()
        wall_s = time.perf_counter() - wall_start
        rss_mb = peak_rss_mb()
        with phase(layers.VERIFY):
            checks = workload.verify()
        result.update({
            "cpu_s": calibrated_seconds(workload.units),
            "raw_cpu_s": sum(cpu_s for cpu_s, _ in workload.units),
            "wall_s": wall_s,
            "units": len(workload.units),
            "sim_seconds": workload.sim_seconds,
            "peak_rss_mb": rss_mb,
            "operations": workload.operations,
            "failed_operations": workload.failed_operations,
            "checks": [list(check) for check in checks],
            "sim_digest": workload.digest(),
            "counters": workload.counters,
            "extras": workload.extras,
        })
        if recorder is not None:
            recorder.adopt_children()
            table = recorder.table()
            result["layers"] = layers.layer_metrics(table, recorder, missing)
            result["missing_targets"] = missing
            trace_path = Path(args.out).with_suffix(".trace.json")
            trace_path.write_text(
                json.dumps(table.chrome_trace(args.workload)))
            result["trace_file"] = str(trace_path)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
