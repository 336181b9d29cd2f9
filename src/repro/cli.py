"""Command-line interface: quick constellation inspection and exports.

Usage (installed as ``python -m repro``):

.. code-block:: console

   python -m repro info                     # Table 1 overview
   python -m repro info K1                  # one shell's description
   python -m repro rtt K1 Manila Dalian     # RTT series summary
   python -m repro sweep K1 --workers 4     # parallel Fig. 8 path sweep
   python -m repro tles K1 -o k1.tle        # write 3LE file
   python -m repro czml K1 -o k1.czml       # write Cesium document
   python -m repro sky K1 "Saint Petersburg"  # sky view snapshot
   python -m repro report K1 Manila Dalian -o run.json --trace run.jsonl
   python -m repro faults K1 -o faults.json --seed 7   # fault schedule
   python -m repro report K1 Manila Dalian --faults faults.json
   python -m repro sweep K1 --faults faults.json --workers 4
   python -m repro traffic -o workload.json --seed 7   # gravity workload
   python -m repro report K1 --engine fluid --workload workload.json
   python -m repro sweep K1 --workload workload.json --workers 4
   python -m repro report K1 Manila Dalian --profile-out trace.json
   python -m repro sweep K1 --workers 4 --profile-out trace.json
   python -m repro serve K1 --workload w.json --port 7600 --pace 2
   python -m repro checkpoint K1 --workload w.json --at 30 -o state.ckpt
   python -m repro checkpoint --connect 127.0.0.1:7600 -o state.ckpt
   python -m repro checkpoint --inspect state.ckpt  # header, no spec/log
   python -m repro resume state.ckpt -o report.json
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from typing import List, Optional

import numpy as np

from .service.checkpoint import ENGINES

__all__ = ["main", "build_parser"]


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    """The scenario arguments of ``report``."""
    parser.add_argument("shell")
    parser.add_argument("src_city", nargs="?", default=None,
                        help="source city (optional with --workload)")
    parser.add_argument("dst_city", nargs="?", default=None,
                        help="destination city (optional with --workload)")
    parser.add_argument("--engine", choices=ENGINES, default="packet",
                        help="packet simulator (default) or the max-min "
                             "fluid engine")
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--step", type=float, default=1.0,
                        help="probe/snapshot interval (seconds)")
    parser.add_argument("--faults", default=None, metavar="SPEC_JSON",
                        help="apply a fault schedule "
                             "(JSON written by 'repro faults' or "
                             "FaultSchedule.to_json)")
    parser.add_argument("--workload", default=None,
                        metavar="WORKLOAD_JSON",
                        help="drive the run with a workload schedule "
                             "(JSON written by 'repro traffic' or "
                             "WorkloadSchedule.to_json)")
    parser.add_argument("--metrics-out", default=None, metavar="JSON",
                        help="dump the run's MetricsRegistry "
                             "(counters/histograms/series) here")


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    """The scenario arguments ``serve`` and ``checkpoint`` share."""
    parser.add_argument("shell", nargs="?", default=None,
                        help="shell name (optional with --connect / "
                             "--inspect / --resume)")
    parser.add_argument("--engine", choices=ENGINES, default="packet",
                        help="packet simulator (default) or the max-min "
                             "fluid engine")
    parser.add_argument("--cities", type=int, default=100,
                        help="ground stations (top-N cities)")
    parser.add_argument("--horizon", type=float, default=60.0,
                        help="simulated end of the run (seconds)")
    parser.add_argument("--epoch", type=float, default=1.0,
                        help="epoch granularity (seconds); also the fluid "
                             "snapshot step")
    parser.add_argument("--faults", default=None, metavar="SPEC_JSON",
                        help="apply a fault schedule "
                             "(JSON written by 'repro faults')")
    parser.add_argument("--workload", default=None, metavar="WORKLOAD_JSON",
                        help="drive the run with a workload schedule "
                             "(JSON written by 'repro traffic'; required "
                             "for the fluid engine)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hypatia reproduction: LEO constellation analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="describe shells (Table 1)")
    info.add_argument("shell", nargs="?", default=None,
                      help="shell name (S1..S5, K1..K3, T1/T2); "
                           "omit for the full table")

    rtt = sub.add_parser("rtt", help="RTT between two cities over time")
    rtt.add_argument("shell")
    rtt.add_argument("src_city")
    rtt.add_argument("dst_city")
    rtt.add_argument("--duration", type=float, default=60.0)
    rtt.add_argument("--step", type=float, default=2.0)
    rtt.add_argument("--workers", type=int, default=1,
                     help="snapshot-sweep worker processes "
                          "(1 = serial, 0 = all cores)")

    sweep = sub.add_parser(
        "sweep", help="path-evolution sweep over a permutation "
                      "traffic matrix (Fig. 8)")
    sweep.add_argument("shell")
    sweep.add_argument("--cities", type=int, default=100,
                       help="ground stations (top-N cities)")
    sweep.add_argument("--duration", type=float, default=60.0)
    sweep.add_argument("--step", type=float, default=1.0)
    sweep.add_argument("--workers", type=int, default=1,
                       help="snapshot-sweep worker processes "
                            "(1 = serial, 0 = all cores)")
    sweep.add_argument("-o", "--output", default=None,
                       help="write per-pair stats JSON")
    sweep.add_argument("--faults", default=None, metavar="SPEC_JSON",
                       help="apply a fault schedule "
                            "(JSON written by 'repro faults' or "
                            "FaultSchedule.to_json)")
    sweep.add_argument("--workload", default=None, metavar="WORKLOAD_JSON",
                       help="track the pairs of a workload schedule "
                            "(JSON written by 'repro traffic') instead of "
                            "the permutation matrix")
    sweep.add_argument("--profile-out", default=None, metavar="TRACE_JSON",
                       help="run under the span profiler and write the "
                            "merged (all workers) Chrome trace-event "
                            "JSON here (load in Perfetto)")

    tles = sub.add_parser("tles", help="generate a 3LE file for a shell")
    tles.add_argument("shell")
    tles.add_argument("-o", "--output", required=True)

    czml = sub.add_parser("czml", help="generate a Cesium CZML document")
    czml.add_argument("shell")
    czml.add_argument("-o", "--output", required=True)
    czml.add_argument("--duration", type=float, default=300.0)
    czml.add_argument("--step", type=float, default=30.0)

    sky = sub.add_parser("sky", help="ground observer's sky view")
    sky.add_argument("shell")
    sky.add_argument("city")
    sky.add_argument("--time", type=float, default=0.0)

    report = sub.add_parser(
        "report", help="run a small scenario and dump its RunReport")
    _add_scenario_args(report)
    report.add_argument("-o", "--output", default=None,
                        help="write the full report JSON here")
    report.add_argument("--trace", default=None,
                        help="write the JSONL event trace here "
                             "(packet engine only)")
    report.add_argument("--profile-out", default=None,
                        metavar="TRACE_JSON",
                        help="run under the span profiler and write the "
                             "Chrome trace-event JSON here (load in "
                             "Perfetto)")

    serve = sub.add_parser(
        "serve", help="run a live, checkpointable simulation behind a "
                      "JSON-over-TCP command API")
    _add_service_args(serve)
    serve.add_argument("--resume", default=None, metavar="CKPT",
                       help="serve from a checkpoint instead of t=0 "
                            "(the shell argument is then ignored)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (0 picks a free one and prints it)")
    serve.add_argument("--pace", type=float, default=0.0,
                       help="wall-clock pacing factor: advance one epoch "
                            "every epoch/pace wall seconds (2 = twice "
                            "real time; 0 = advance only on command)")

    checkpoint = sub.add_parser(
        "checkpoint", help="capture a JSON replay checkpoint — offline "
                           "(build + advance + save), from a live server "
                           "(--connect), or inspect one (--inspect)")
    _add_service_args(checkpoint)
    checkpoint.add_argument("-o", "--output", default=None,
                            help="write the checkpoint file here")
    checkpoint.add_argument("--at", type=float, default=0.0,
                            help="advance to this simulated time before "
                                 "checkpointing (offline mode)")
    checkpoint.add_argument("--connect", default=None, metavar="HOST:PORT",
                            help="checkpoint a running 'repro serve' "
                                 "instead of building offline")
    checkpoint.add_argument("--advance", type=int, default=0,
                            metavar="EPOCHS",
                            help="with --connect: advance this many epochs "
                                 "first")
    checkpoint.add_argument("--inspect", default=None, metavar="CKPT",
                            help="print an existing checkpoint's header "
                                 "(no spec, no log) and exit")

    resume = sub.add_parser(
        "resume", help="restore a checkpoint by replaying it, run it to "
                       "the horizon, and dump its RunReport")
    resume.add_argument("checkpoint", help="checkpoint file to restore")
    resume.add_argument("-o", "--output", default=None,
                        help="write the full report JSON here")
    resume.add_argument("--metrics-out", default=None, metavar="JSON",
                        help="dump the restored run's MetricsRegistry here")
    resume.add_argument("--checkpoint-out", default=None, metavar="CKPT",
                        help="re-checkpoint at the horizon (archives the "
                             "completed run)")

    faults = sub.add_parser(
        "faults", help="generate a seeded synthetic fault schedule")
    faults.add_argument("shell")
    faults.add_argument("-o", "--output", required=True,
                        help="write the schedule JSON here")
    faults.add_argument("--cities", type=int, default=100,
                        help="ground stations the schedule covers")
    faults.add_argument("--duration", type=float, default=60.0)
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--sat-outage-prob", type=float, default=0.02,
                        help="per-satellite outage probability")
    faults.add_argument("--gsl-cut-prob", type=float, default=0.05,
                        help="per-station GSL cut probability")
    faults.add_argument("--loss-prob", type=float, default=0.05,
                        help="per-station lossy-uplink probability")
    faults.add_argument("--mean-duration", type=float, default=30.0,
                        help="mean fault duration (seconds)")

    traffic = sub.add_parser(
        "traffic", help="generate a seeded traffic workload "
                        "(gravity or permutation demand)")
    traffic.add_argument("-o", "--output", required=True,
                         help="write the workload schedule JSON here")
    traffic.add_argument("--cities", type=int, default=100,
                         help="ground stations the matrix covers")
    traffic.add_argument("--model", choices=("gravity", "permutation"),
                         default="gravity",
                         help="demand model (gravity: population-weighted; "
                              "permutation: the paper's section 5.4 matrix)")
    traffic.add_argument("--total-mbps", type=float, default=1000.0,
                         help="aggregate offered load (gravity model)")
    traffic.add_argument("--pair-mbps", type=float, default=10.0,
                         help="per-pair offered load (permutation model)")
    traffic.add_argument("--distance-exponent", type=float, default=1.0,
                         help="gravity deterrence exponent "
                              "(0 disables distance)")
    traffic.add_argument("--duration", type=float, default=60.0,
                         help="workload horizon (seconds)")
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--mean-size", type=float, default=1_000_000.0,
                         help="mean flow size (bytes)")
    traffic.add_argument("--size-dist",
                         choices=("exponential", "lognormal", "pareto"),
                         default="exponential",
                         help="flow size distribution")
    traffic.add_argument("--matrix-out", default=None,
                         help="also write the demand matrix JSON here")

    cc_lab = sub.add_parser(
        "cc-lab", help="race every congestion controller through the "
                       "fault x weather x churn scenario matrix")
    cc_lab.add_argument("--shell", default="8x8", metavar="NxM",
                        help="lab constellation: N orbits x M satellites "
                             "at 600 km / 53 deg (default 8x8; below 8x8 "
                             "some site pairs have no route)")
    cc_lab.add_argument("--controllers", default=None, metavar="CSV",
                        help="comma-separated controller names "
                             "(default: bbr,newreno,vegas)")
    cc_lab.add_argument("--duration", type=float, default=8.0,
                        help="simulated seconds per cell")
    cc_lab.add_argument("--seed", type=int, default=0,
                        help="workload / fault / storm base seed")
    cc_lab.add_argument("--workers", type=int, default=1,
                        help="cell worker processes (1 = serial, 0 = all "
                             "cores; the report is identical at any width)")
    cc_lab.add_argument("-o", "--output", default=None, metavar="JSON",
                        help="write the full cell-by-cell report here")
    return parser


def _cmd_info(args) -> int:
    from .constellations.definitions import ALL_SHELLS, shell_by_name
    if args.shell:
        shell = shell_by_name(args.shell)
        print(f"{shell.name}: {shell.num_orbits} orbits x "
              f"{shell.satellites_per_orbit} satellites "
              f"({shell.total_satellites} total) @ "
              f"{shell.altitude_km:.0f} km, i={shell.inclination_deg} deg")
        return 0
    for spec in ALL_SHELLS.values():
        print(f"{spec.name} ({spec.total_satellites} satellites, "
              f"min elevation {spec.min_elevation_deg:.0f} deg):")
        for shell in spec.shells:
            print(f"  {shell.name}: {shell.num_orbits} x "
                  f"{shell.satellites_per_orbit} @ "
                  f"{shell.altitude_km:.0f} km, "
                  f"i={shell.inclination_deg} deg")
    return 0


def _cmd_rtt(args) -> int:
    from .core.hypatia import Hypatia
    hypatia = Hypatia.from_shell_name(args.shell, num_cities=100)
    pair = hypatia.pair(args.src_city, args.dst_city)
    timeline = hypatia.compute_timelines(
        [pair], duration_s=args.duration, step_s=args.step,
        workers=args.workers)[pair]
    rtts = timeline.rtts_s
    finite = rtts[np.isfinite(rtts)]
    if finite.size == 0:
        print(f"{args.src_city} -> {args.dst_city}: never connected over "
              f"{args.duration:.0f}s")
        return 1
    print(f"{args.src_city} -> {args.dst_city} over {args.shell}, "
          f"{args.duration:.0f}s at {args.step:.1f}s steps:")
    print(f"  RTT min/median/max: {finite.min() * 1000:.2f} / "
          f"{np.median(finite) * 1000:.2f} / "
          f"{finite.max() * 1000:.2f} ms")
    print(f"  connected: {np.isfinite(rtts).mean() * 100:.1f}% of "
          f"snapshots")
    return 0


def _load_faults(path: Optional[str]):
    """Load a ``--faults`` schedule file (None passes through)."""
    if path is None:
        return None
    from .faults import FaultSchedule
    try:
        schedule = FaultSchedule.from_json(path)
    except (OSError, ValueError) as error:
        raise KeyError(f"cannot load fault schedule {path!r}: {error}")
    print(f"loaded fault schedule: {schedule.num_events} events, "
          f"seed {schedule.seed}")
    return schedule


def _load_workload(path: Optional[str]):
    """Load a ``--workload`` schedule file (None passes through)."""
    if path is None:
        return None
    from .traffic import WorkloadSchedule
    try:
        schedule = WorkloadSchedule.from_json(path)
    except (OSError, ValueError) as error:
        raise KeyError(f"cannot load workload {path!r}: {error}")
    print(f"loaded workload: {schedule.num_flows} flows over "
          f"{len(schedule.pairs())} pairs, seed {schedule.seed}")
    return schedule


def _cmd_sweep(args) -> int:
    import json

    from .analysis.paths import pair_path_stats
    from .core.hypatia import Hypatia
    from .core.workloads import random_permutation_pairs
    from .obs import spans

    hypatia = Hypatia.from_shell_name(args.shell, num_cities=args.cities,
                                      faults=_load_faults(args.faults))
    workload = _load_workload(args.workload)
    if workload is not None:
        pairs = workload.pairs()
        if not pairs:
            raise KeyError(f"workload {args.workload!r} has no flows")
    else:
        pairs = random_permutation_pairs(args.cities)
    profile_out = args.profile_out
    with spans.profiled() if profile_out else nullcontext() as profiler:
        timelines = hypatia.compute_timelines(
            pairs, duration_s=args.duration, step_s=args.step,
            workers=args.workers)
    if profiler is not None:
        events = profiler.write_chrome_trace(
            profile_out,
            metadata={"provenance": {"shell": args.shell,
                                     "duration_s": args.duration,
                                     "step_s": args.step,
                                     "workers": args.workers}})
        print(f"wrote {events} span events to {profile_out} "
              f"(open at https://ui.perfetto.dev)")
    stats = pair_path_stats(timelines, hypatia.network.num_satellites)
    changes = np.array([s.num_path_changes for s in stats])
    spreads = np.array([s.hop_spread for s in stats])
    num_snapshots = len(next(iter(timelines.values())).times_s)
    print(f"{args.shell}: {len(pairs)} pairs x {num_snapshots} snapshots "
          f"({args.duration:.0f}s at {args.step:.1f}s steps)")
    if changes.size:
        print(f"  path changes median/max: {np.median(changes):.0f} / "
              f"{changes.max()}")
        print(f"  hop spread median/max:   {np.median(spreads):.0f} / "
              f"{spreads.max()}")
    if args.output:
        payload = {
            "shell": args.shell,
            "duration_s": args.duration,
            "step_s": args.step,
            "workers": args.workers,
            "pairs": [
                {"src_gid": s.src_gid, "dst_gid": s.dst_gid,
                 "num_path_changes": s.num_path_changes,
                 "min_hops": s.min_hops, "max_hops": s.max_hops}
                for s in stats
            ],
        }
        with open(args.output, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=1)
            stream.write("\n")
        print(f"wrote sweep stats to {args.output}")
    return 0


def _cmd_tles(args) -> int:
    from .constellations.builder import Constellation
    from .constellations.definitions import shell_by_name
    from .orbits.tle import write_tle_file
    constellation = Constellation([shell_by_name(args.shell)])
    tles = constellation.generate_tles()
    write_tle_file(tles, args.output)
    print(f"wrote {len(tles)} element sets to {args.output}")
    return 0


def _cmd_czml(args) -> int:
    from .constellations.builder import Constellation
    from .constellations.definitions import shell_by_name
    from .viz.czml import constellation_czml, write_czml
    constellation = Constellation([shell_by_name(args.shell)])
    document = constellation_czml(constellation, args.duration,
                                  step_s=args.step)
    write_czml(document, args.output)
    print(f"wrote {len(document) - 1} satellite packets to {args.output}")
    return 0


def _cmd_sky(args) -> int:
    from .core.hypatia import Hypatia
    from .viz.ground_view import sky_snapshot
    if not math.isfinite(args.time):
        raise ValueError(f"--time must be finite, got {args.time}")
    hypatia = Hypatia.from_shell_name(args.shell, num_cities=100)
    station = hypatia.ground_stations[hypatia.gid(args.city)]
    snap = sky_snapshot(hypatia.constellation, station,
                        hypatia.network.min_elevation_deg, args.time)
    print(f"{args.city} over {args.shell} at t={args.time:.0f}s: "
          f"{snap.num_above_horizon} above horizon, "
          f"{snap.num_connectable} connectable "
          f"(min elevation {hypatia.network.min_elevation_deg:.0f} deg)")
    order = np.argsort(-snap.elevations_deg)[:10]
    for i in order:
        marker = "*" if snap.connectable[i] else " "
        print(f"  {marker} sat {snap.satellite_ids[i]:4d}  "
              f"az {snap.azimuths_deg[i]:6.1f} deg  "
              f"el {snap.elevations_deg[i]:5.1f} deg")
    return 0


def _run_provenance(args, faults, workload) -> dict:
    """Run-identity fields for the report's provenance header."""
    provenance = {
        "shell": args.shell,
        "duration_s": args.duration,
        "step_s": args.step,
    }
    if faults is not None:
        provenance["faults"] = {"seed": faults.seed,
                                "num_events": faults.num_events}
    if workload is not None:
        provenance["workload"] = {"seed": workload.seed,
                                  "num_flows": workload.num_flows}
    return provenance


def _cmd_report(args) -> int:
    from .core.hypatia import Hypatia
    from .fluid.engine import FluidFlow
    from .obs import MetricsRegistry, RingBufferTracer, spans
    from .transport.tcp import TcpFlow
    faults = _load_faults(args.faults)
    hypatia = Hypatia.from_shell_name(args.shell, num_cities=100,
                                      faults=faults)
    workload = _load_workload(args.workload)
    if workload is None and (args.src_city is None or args.dst_city is None):
        raise KeyError("report needs a src/dst city pair, a --workload "
                       "file, or both")
    pair = (hypatia.pair(args.src_city, args.dst_city)
            if args.src_city is not None and args.dst_city is not None
            else None)
    provenance = _run_provenance(args, faults, workload)

    trace_out = args.trace
    profile_out = args.profile_out
    with spans.profiled() if profile_out else nullcontext() as profiler:
        if args.engine == "packet":
            from .traffic.spawner import (WorkloadSpawner,
                                          packet_fct_section)
            # Tracing costs the run; only --trace pays for it.
            tracer = RingBufferTracer() if trace_out else None
            sim = hypatia.build_packet_simulator(tracer=tracer)
            registry = MetricsRegistry()
            sim.attach_probe(registry=registry, interval_s=args.step)
            if pair is not None:
                TcpFlow(pair[0], pair[1]).install(sim)
            spawner = (WorkloadSpawner(workload,
                                       metrics=registry).install(sim)
                       if workload is not None else None)
            sim.run(args.duration)
            report = sim.report(registry=registry)
            if spawner is not None:
                report.extras["fct"] = packet_fct_section([spawner],
                                                         registry)
            if trace_out:
                tracer.to_jsonl(trace_out)
                print(f"wrote {tracer.summary()['retained']} trace events "
                      f"to {trace_out}")
        else:
            if trace_out:
                print("note: --trace applies to the packet engine only",
                      file=sys.stderr)
            registry = MetricsRegistry()
            flows = ([FluidFlow(pair[0], pair[1])] if pair is not None
                     else [])
            fluid = hypatia.build_fluid_simulation(
                flows, metrics=registry, workload=workload)
            result = fluid.run(args.duration, step_s=args.step)
            report = result.report(registry=registry)

    report.provenance = {**(report.provenance or {}), **provenance}
    print(report.describe())
    if args.output:
        report.to_json(args.output)
        print(f"wrote report to {args.output}")
    if args.metrics_out:
        registry.to_json(args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    if profiler is not None:
        events = profiler.write_chrome_trace(
            profile_out, metadata={"provenance": report.provenance})
        print(f"wrote {events} span events to {profile_out} "
              f"(open at https://ui.perfetto.dev)")
    return 0


def _build_service(args):
    """Build a LiveSimulationService from serve/checkpoint CLI args."""
    from .core.hypatia import Hypatia
    from .service import LiveSimulationService
    from .sweep.spec import NetworkSpec
    if args.shell is None:
        raise KeyError(f"{args.command} needs a shell name (or a "
                       f"checkpoint via --connect/--inspect/--resume)")
    faults = _load_faults(args.faults)
    workload = _load_workload(args.workload)
    hypatia = Hypatia.from_shell_name(args.shell, num_cities=args.cities,
                                      faults=faults)
    spec = NetworkSpec.from_network(hypatia.network)
    if workload is not None:
        spec = spec.with_workload(workload)
    return LiveSimulationService(
        spec, engine=args.engine,
        horizon_s=args.horizon, epoch_s=args.epoch,
        meta={"shell": args.shell})


def _cmd_serve(args) -> int:
    import asyncio

    from .service import LiveSimulationService, serve_forever
    if args.resume is not None:
        service = LiveSimulationService.resume(args.resume)
        print(f"resumed {args.resume}: {service.engine} at "
              f"t={service.clock_s:.1f}s of {service.horizon_s:.1f}s")
    else:
        service = _build_service(args)

    def ready(server) -> None:
        print(f"serving {service.engine} simulation on "
              f"{server.host}:{server.port} "
              f"(epoch {service.epoch_s:g}s, pace {args.pace:g})",
              flush=True)

    try:
        asyncio.run(serve_forever(service, host=args.host, port=args.port,
                                  pace=args.pace, ready_callback=ready))
    except KeyboardInterrupt:
        pass
    print(f"stopped at t={service.clock_s:.1f}s")
    return 0


def _cmd_checkpoint(args) -> int:
    import json

    if args.inspect is not None:
        from .service import read_checkpoint_header
        header = read_checkpoint_header(args.inspect)
        print(json.dumps(header, indent=1, sort_keys=True))
        return 0
    if args.output is None:
        raise KeyError("checkpoint needs -o/--output (or --inspect)")
    if args.connect is not None:
        from .service import ServiceClient
        host, _, port = args.connect.rpartition(":")
        if not port.isdigit():
            raise KeyError(f"--connect wants HOST:PORT, got {args.connect!r}")
        with ServiceClient(host or "127.0.0.1", int(port)) as client:
            if args.advance > 0:
                client.advance(args.advance)
            header = client.checkpoint(args.output)
        print(f"checkpointed the live service at t={header['time_s']:.1f}s "
              f"to {args.output}")
        return 0
    service = _build_service(args)
    if args.at != 0.0:  # NaN, inf and negatives reach the refusal
        service.advance_to(args.at)
    header = service.save(args.output)
    print(f"checkpointed {service.engine} run at "
          f"t={header['time_s']:.1f}s of {service.horizon_s:.1f}s "
          f"to {args.output} (spec {header['spec_hash'][:12]})")
    return 0


def _cmd_resume(args) -> int:
    from .service import LiveSimulationService
    service = LiveSimulationService.resume(args.checkpoint)
    print(f"resumed {args.checkpoint}: {service.engine} at "
          f"t={service.clock_s:.1f}s of {service.horizon_s:.1f}s")
    service.run_to_horizon()
    report = service.report()
    print(report.describe())
    if args.output:
        report.to_json(args.output)
        print(f"wrote report to {args.output}")
    if args.metrics_out:
        service.metrics.to_json(args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}")
    if args.checkpoint_out:
        service.save(args.checkpoint_out)
        print(f"wrote horizon checkpoint to {args.checkpoint_out}")
    return 0


def _cmd_faults(args) -> int:
    from .constellations.definitions import shell_by_name
    from .faults import FaultSchedule
    shell = shell_by_name(args.shell)
    schedule = FaultSchedule.synthetic(
        num_satellites=shell.total_satellites,
        num_stations=args.cities,
        duration_s=args.duration,
        seed=args.seed,
        satellite_outage_probability=args.sat_outage_prob,
        gsl_cut_probability=args.gsl_cut_prob,
        loss_probability=args.loss_prob,
        mean_duration_s=args.mean_duration,
    )
    schedule.to_json(args.output)
    by_kind: dict = {}
    for event in schedule:
        by_kind[event.kind.value] = by_kind.get(event.kind.value, 0) + 1
    print(f"wrote {schedule.num_events} fault events (seed {args.seed}) "
          f"to {args.output}")
    for kind, count in sorted(by_kind.items()):
        print(f"  {kind}: {count}")
    return 0


def _cmd_traffic(args) -> int:
    from .traffic import FlowArrivalProcess, TrafficMatrix
    if args.model == "gravity":
        matrix = TrafficMatrix.gravity(
            count=args.cities,
            total_offered_bps=args.total_mbps * 1e6,
            distance_exponent=args.distance_exponent)
    else:
        matrix = TrafficMatrix.permutation(
            num_stations=args.cities, rate_bps=args.pair_mbps * 1e6)
    process = FlowArrivalProcess(
        matrix, mean_size_bytes=args.mean_size,
        size_distribution=args.size_dist, seed=args.seed)
    schedule = process.generate(args.duration)
    schedule.to_json(args.output)
    print(f"wrote {schedule.num_flows} flow arrivals over "
          f"{args.duration:.0f}s ({matrix.kind} matrix, "
          f"{len(schedule.pairs())} active pairs, seed {args.seed}) "
          f"to {args.output}")
    print(f"  offered load: "
          f"{schedule.offered_load_bps(args.duration) / 1e6:.2f} Mbit/s "
          f"(matrix target {matrix.total_offered_bps / 1e6:.2f})")
    if args.matrix_out:
        matrix.to_json(args.matrix_out)
        print(f"wrote demand matrix to {args.matrix_out}")
    return 0


def _cmd_cc_lab(args) -> int:
    from .cc.lab import lab_network, run_lab
    controllers = None if args.controllers is None else [
        name.strip() for name in args.controllers.split(",")
        if name.strip()]
    try:
        base = lab_network(args.shell)
    except ValueError as error:
        raise KeyError(str(error))
    report = run_lab(controllers=controllers, seed=args.seed,
                     duration_s=args.duration, workers=args.workers,
                     base=base)
    for line in report.format_lines():
        print(line)
    if args.output:
        report.to_json(args.output)
        print(f"wrote cell-by-cell report to {args.output}")
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "rtt": _cmd_rtt,
    "sweep": _cmd_sweep,
    "tles": _cmd_tles,
    "czml": _cmd_czml,
    "sky": _cmd_sky,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "checkpoint": _cmd_checkpoint,
    "resume": _cmd_resume,
    "faults": _cmd_faults,
    "traffic": _cmd_traffic,
    "cc-lab": _cmd_cc_lab,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except RuntimeError as error:
        from .service import CheckpointError, ServiceError
        from .service.client import ServiceClientError
        if isinstance(error, (CheckpointError, ServiceError,
                              ServiceClientError)):
            print(f"error: {error}", file=sys.stderr)
            return 2
        raise
