"""The parallel snapshot-sweep engine.

The paper's figure pipeline (§3.1/§5.3, Figs. 3, 6-9) is a walk over
forwarding-state snapshots: at every instant, recompute the topology,
run the batched per-destination Dijkstra, and record each tracked pair's
path and distance.  Snapshots are independent of one another, so the walk
shards cleanly: this engine splits the schedule into contiguous chunks,
evaluates each chunk in a worker process (rebuilding the network there
from a picklable :class:`~repro.sweep.spec.NetworkSpec` — live graphs and
engines never cross the process boundary), and merges the per-pair arrays
back in time order.

Determinism contract: ``workers=N`` is bit-identical to ``workers=1``.
Every chunk runs the exact same inner loop
(:func:`repro.topology.dynamic_state.compute_pair_chunk`) on a network
rebuilt from the exact same spec, and the merge is a pure concatenation
in chunk order — no reductions whose result depends on worker scheduling.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import spans
from ..topology.dynamic_state import PairTimeline, compute_pair_chunk
from ..topology.network import LeoNetwork
from .spec import NetworkSpec

__all__ = ["sweep_timelines", "shard_snapshots", "resolve_workers",
           "record_sweep_metrics", "ChunkRecord"]

PairKey = Tuple[int, int]

#: One chunk's execution record, in schedule order:
#: ``(chunk_index, build_wall_s, total_wall_s, num_snapshots, worker_pid,
#: snapshot_start, snapshot_stop)`` — the pid is the OS pid of whichever
#: process executed the chunk, the bounds are its half-open snapshot
#: index range within the full schedule.
ChunkRecord = Tuple[int, float, float, int, int, int, int]


def record_sweep_metrics(metrics, times_s: np.ndarray,
                         chunk_walls: Sequence[ChunkRecord],
                         effective_workers: int, wall_s: float) -> None:
    """Publish a sweep's timing breakdown to a metrics registry.

    ``chunk_walls`` holds one :data:`ChunkRecord` per chunk, in schedule
    order.  Each chunk publishes its timings plus its executing worker's
    OS pid and snapshot-index bounds, so merged span profiles can be
    attributed unambiguously to the worker/chunk that produced them.
    """
    metrics.gauge("sweep.workers").set(float(effective_workers))
    metrics.gauge("sweep.wall_s").set(wall_s)
    metrics.counter("sweep.snapshots").inc(float(len(times_s)))
    for (index, build_wall_s, total_wall_s, count,
         worker_pid, start, stop) in chunk_walls:
        at = float(times_s[start]) if start < len(times_s) else 0.0
        prefix = f"sweep.worker.{index}."
        metrics.series(prefix + "wall_s").append(at, total_wall_s)
        metrics.series(prefix + "build_s").append(at, build_wall_s)
        metrics.series(prefix + "snapshots").append(at, float(count))
        metrics.series(prefix + "pid").append(at, float(worker_pid))
        metrics.series(prefix + "chunk_start").append(at, float(start))
        metrics.series(prefix + "chunk_stop").append(at, float(stop))


def shard_snapshots(num_snapshots: int,
                    num_chunks: int) -> List[Tuple[int, int]]:
    """Contiguous, near-equal ``(start, stop)`` index ranges over ``[0, T)``.

    The first ``T % num_chunks`` chunks get one extra snapshot; the
    ranges cover the schedule exactly once, in order.  Never returns more
    chunks than snapshots.
    """
    if num_snapshots < 0:
        raise ValueError(f"snapshot count must be >= 0, got {num_snapshots}")
    if num_chunks < 1:
        raise ValueError(f"chunk count must be >= 1, got {num_chunks}")
    num_chunks = min(num_chunks, num_snapshots) or 1
    base, extra = divmod(num_snapshots, num_chunks)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(num_chunks):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` argument: None/1 -> serial, 0 -> all cores."""
    if workers is None:
        return 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _mp_context():
    """Prefer ``fork`` (cheap, inherits the interpreter) when available."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _compute_chunk(spec: NetworkSpec, pairs: List[PairKey],
                   times_s: np.ndarray,
                   network: Optional[LeoNetwork] = None,
                   isl_pairs: Optional[np.ndarray] = None
                   ) -> Tuple[Dict[PairKey, tuple], float, float]:
    """Build (unless given) the network and sweep one chunk of snapshots.

    The one build → compute → record sequence behind both the serial
    walk and every worker, under the ambient span profiler.  Returns
    ``(chunk_result, build_wall_s, total_wall_s)``.
    """
    profiler = spans.ACTIVE
    profiling = profiler.enabled
    started = time.perf_counter()
    chunk_span = profiler.begin("sweep.chunk") if profiling else -1
    build_span = profiler.begin("sweep.build") if profiling else -1
    if network is None:
        network = spec.build(isl_pairs=isl_pairs)
    if build_span != -1:
        profiler.end(build_span)
    build_wall_s = time.perf_counter() - started
    compute_span = profiler.begin("sweep.compute") if profiling else -1
    result = compute_pair_chunk(network, pairs, times_s)
    if compute_span != -1:
        profiler.end(compute_span)
    if chunk_span != -1:
        profiler.end(chunk_span)
    return result, build_wall_s, time.perf_counter() - started


def _run_chunk(payload: Tuple[int, NetworkSpec, List[PairKey], np.ndarray,
                              np.ndarray, bool]
               ) -> Tuple[int, Dict[PairKey, tuple], float, float, int,
                          Optional[dict]]:
    """One worker's unit of work: rebuild the network, sweep one chunk.

    Module-level so multiprocessing pickles it by reference.  The
    payload carries the chunk's snapshot times and the parent's static
    ``isl_pairs`` by value, so the worker skips the ISL builder.
    Returns ``(chunk_index, chunk_result, build_wall_s, total_wall_s,
    os_pid, span_profile)`` — the profile is the worker's serialized
    span tree (:meth:`SpanProfiler.as_dict`) when the parent asked for
    profiling, else None.
    """
    chunk_index, spec, pairs, times_s, isl_pairs, profile = payload
    profiler = None
    if profile:
        # A fresh local profiler: the fork child inherits the parent's
        # installed profiler, whose spans would be lost with the child —
        # replace it so this chunk's spans travel back in the return.
        profiler = spans.SpanProfiler(label=f"sweep worker {chunk_index}")
        spans.install(profiler)
    try:
        result, build_wall_s, total_wall_s = _compute_chunk(
            spec, pairs, times_s, isl_pairs=isl_pairs)
    finally:
        if profile:
            spans.uninstall()
    profile_dict = profiler.as_dict() if profiler is not None else None
    return (chunk_index, result, build_wall_s, total_wall_s, os.getpid(),
            profile_dict)


def sweep_timelines(spec: NetworkSpec,
                    pairs: Sequence[PairKey],
                    times_s: np.ndarray,
                    workers: Optional[int] = None,
                    metrics=None,
                    mp_context=None,
                    network: Optional[LeoNetwork] = None,
                    ) -> Dict[PairKey, PairTimeline]:
    """Evaluate a snapshot sweep, optionally across worker processes.

    Args:
        spec: Picklable recipe for the network (see :class:`NetworkSpec`).
        pairs: (src_gid, dst_gid) pairs to track.
        times_s: Snapshot instants, ascending (the full schedule).
        workers: Worker process count; ``None``/1 runs in-process, 0 uses
            every core.  Short schedules get at most one chunk per
            snapshot.
        metrics: Optional :class:`repro.obs.MetricsRegistry` receiving
            per-worker timing series (``sweep.worker.<k>.wall_s`` /
            ``.build_s`` / ``.snapshots`` / ``.pid`` / ``.chunk_start``
            / ``.chunk_stop``, keyed by each chunk's first snapshot
            time) plus ``sweep.workers`` / ``sweep.wall_s`` gauges and
            a ``sweep.snapshots`` counter.
        mp_context: Multiprocessing context override (tests).
        network: Optional already-built network matching ``spec``.  The
            serial path walks it directly instead of rebuilding, and the
            parallel path reads its static ISL interconnect for the
            chunk payloads; workers always rebuild from ``spec``.

    Returns:
        pair -> :class:`PairTimeline` over the full schedule, bit-identical
        to a serial walk regardless of ``workers``.
    """
    times_s = np.asarray(times_s, dtype=np.float64)
    pair_keys: List[PairKey] = [(int(src), int(dst)) for src, dst in pairs]
    if not pair_keys:
        raise ValueError("need at least one pair to track")
    workers = resolve_workers(workers)
    sweep_started = time.perf_counter()
    profiler = spans.ACTIVE
    profiling = profiler.enabled

    if workers <= 1 or len(times_s) <= 1:
        merged, build_wall_s, total_wall_s = _compute_chunk(
            spec, pair_keys, times_s, network=network)
        chunk_walls: List[ChunkRecord] = [
            (0, build_wall_s, total_wall_s,
             len(times_s), os.getpid(), 0, len(times_s))]
        effective_workers = 1
    else:
        shards = shard_snapshots(len(times_s), workers)
        isl_pairs = (network.isl_pairs if network is not None
                     else spec.static_isl_pairs())
        payloads = [(index, spec, pair_keys, times_s[start:stop],
                     isl_pairs, profiling)
                    for index, (start, stop) in enumerate(shards)]
        context = mp_context if mp_context is not None else _mp_context()
        scatter_span = (profiler.begin("sweep.scatter_gather")
                        if profiling else -1)
        with ProcessPoolExecutor(max_workers=len(payloads),
                                 mp_context=context) as pool:
            outcomes = sorted(pool.map(_run_chunk, payloads),
                              key=lambda item: item[0])
        if scatter_span != -1:
            profiler.end(scatter_span)
        # Deterministic time-order merge: concatenate chunk arrays in
        # shard order, which is schedule order by construction.  The
        # same order governs span-profile adoption, so merged traces
        # are identical run-to-run regardless of worker scheduling.
        merge_span = (profiler.begin("sweep.merge") if profiling else -1)
        merged = {}
        for pair in pair_keys:
            distances = np.concatenate(
                [outcome[1][pair][0] for outcome in outcomes])
            paths: List[Optional[Tuple[int, ...]]] = []
            for outcome in outcomes:
                paths.extend(outcome[1][pair][1])
            merged[pair] = (distances, paths)
        if profiling and isinstance(profiler, spans.SpanProfiler):
            for (index, _, _, _, _, profile), (start, stop) in zip(
                    outcomes, shards):
                if profile is not None:
                    profiler.adopt(profile, chunk_index=index,
                                   snapshot_start=start,
                                   snapshot_stop=stop)
        if merge_span != -1:
            profiler.end(merge_span)
        chunk_walls = [
            (index, build_wall_s, total_wall_s, stop - start,
             worker_pid, start, stop)
            for (index, _, build_wall_s, total_wall_s, worker_pid, _),
                (start, stop) in zip(outcomes, shards)
        ]
        effective_workers = len(payloads)

    if metrics is not None:
        record_sweep_metrics(metrics, times_s, chunk_walls,
                             effective_workers,
                             time.perf_counter() - sweep_started)

    return {
        pair: PairTimeline(src_gid=pair[0], dst_gid=pair[1],
                           times_s=times_s, distances_m=distances,
                           paths=paths)
        for pair, (distances, paths) in merged.items()
    }
