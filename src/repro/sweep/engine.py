"""The snapshot-sweep engine: the one timeline walk, serial or sharded.

The paper's figure pipeline (§3.1/§5.3, Figs. 3, 6-9) is a walk over
forwarding-state snapshots: at every instant, recompute the topology,
run the batched per-destination Dijkstra, and record each tracked pair's
path and distance.  :func:`sweep_timelines` is that walk for every
caller: it splits the schedule into contiguous chunks, evaluates each —
the only chunk in-process on the caller's network, several in worker
processes that rebuild the network from a picklable
:class:`~repro.sweep.spec.NetworkSpec` (live graphs and engines never
cross the process boundary) — and splices the chunks' distance matrices
and path tuples back in time order (:func:`splice_timelines`).

Determinism contract: ``workers=N`` is bit-identical to ``workers=1``.
Every chunk runs the exact same inner loop
(:func:`repro.topology.dynamic_state.compute_pair_chunk`) on a network
rebuilt from the exact same spec, and the merge is a pure concatenation
in chunk order — no reductions whose result depends on worker scheduling.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import spans
from ..topology.dynamic_state import (ChunkResult, PairTimeline,
                                      compute_pair_chunk)
from ..topology.network import LeoNetwork
from .spec import NetworkSpec

__all__ = ["sweep_timelines", "splice_timelines", "shard_snapshots",
           "resolve_workers"]

PairKey = Tuple[int, int]


def splice_timelines(times_s: np.ndarray,
                     pieces: Sequence[ChunkResult]
                     ) -> Dict[PairKey, PairTimeline]:
    """Join :func:`compute_pair_chunk` results into per-pair timelines.

    ``pieces`` are the chunks of one sweep: consecutive stretches of the
    schedule ``times_s`` in time order, over the same pairs.  A pure
    concatenation, so the result cannot depend on which process computed
    which piece.
    """
    pairs = pieces[0][0]
    distances = np.concatenate([piece[1] for piece in pieces], axis=1)
    snapshots = [step for piece in pieces for step in piece[2]]
    return {
        pair: PairTimeline(src_gid=pair[0], dst_gid=pair[1],
                           times_s=times_s, distances_m=row,
                           paths=list(history))
        for pair, row, history in zip(pairs, distances, zip(*snapshots))}


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


@spans.timed("sweep.chunk")
def _compute_chunk(source: Union[NetworkSpec, LeoNetwork],
                   pairs: List[PairKey], times_s: np.ndarray
                   ) -> ChunkResult:
    """Build (unless given) the network and sweep one chunk of snapshots.

    The one build → compute sequence behind both the serial walk and
    every worker: ``sweep.chunk`` around ``sweep.spec_build`` (a spec
    only) and ``topology.timeline``.
    """
    network = source.build() if isinstance(source, NetworkSpec) else source
    return compute_pair_chunk(network, pairs, times_s)


def _run_chunk(payload: Tuple[int, NetworkSpec, List[PairKey], np.ndarray,
                              bool]
               ) -> Tuple[ChunkResult, Optional[dict]]:
    """One worker's unit of work: rebuild the network, sweep one chunk.

    Module-level so multiprocessing pickles it by reference.  The
    payload carries the chunk's snapshot times by value; the worker
    runs the spec's named ISL builder itself.  Returns ``(chunk_result,
    span_profile)`` — the profile is the worker's serialized span tree
    (:meth:`SpanProfiler.as_dict`, which carries its OS pid) when the
    parent asked for profiling, else None.
    """
    chunk_index, spec, pairs, times_s, profile = payload
    if not profile:
        return _compute_chunk(spec, pairs, times_s), None
    # A fresh local profiler: the fork child inherits the parent's
    # installed profiler, whose spans would be lost with the child —
    # replace it so this chunk's spans travel back in the return.
    with spans.profiled(spans.SpanProfiler(
            label=f"sweep worker {chunk_index}")) as profiler:
        result = _compute_chunk(spec, pairs, times_s)
    return result, profiler.as_dict()


@spans.timed("sweep.total")
def sweep_timelines(source: Union[NetworkSpec, LeoNetwork],
                    pairs: Sequence[PairKey],
                    times_s: np.ndarray,
                    workers: Optional[int] = None,
                    ) -> Dict[PairKey, PairTimeline]:
    """Evaluate a snapshot sweep, optionally across worker processes.

    Args:
        source: The network to sweep: a picklable :class:`NetworkSpec`
            (built here, once per chunk) or a built :class:`LeoNetwork`.
            The serial path walks a built network directly; the
            parallel path ships the network's spec
            (:meth:`NetworkSpec.from_network`) to the workers, which
            rebuild it.
        pairs: (src_gid, dst_gid) pairs to track; at least one, each
            with distinct endpoints.
        times_s: Snapshot instants, ascending (the full schedule).
        workers: Worker process count; ``None``/1 runs in-process, 0 uses
            every core.  Short schedules get at most one chunk per
            snapshot.

    Under an installed :class:`~repro.obs.spans.SpanProfiler`, each
    worker's span tree is adopted in chunk order with its snapshot
    bounds (``chunk_index``, ``snapshot_start``, ``snapshot_stop``) and
    its OS pid — where every chunk's wall-clock went.

    Returns:
        pair -> :class:`PairTimeline` over the full schedule, bit-identical
        to a serial walk regardless of ``workers``.
    """
    times_s = np.asarray(times_s, dtype=np.float64)
    pair_keys: List[PairKey] = [(int(src), int(dst)) for src, dst in pairs]
    if not pair_keys:
        raise ValueError("need at least one pair to track")
    for src, dst in pair_keys:
        if src == dst:
            raise ValueError(f"pair ({src}, {dst}) has equal endpoints")
    if not isinstance(source, (NetworkSpec, LeoNetwork)):
        raise ValueError(f"need a NetworkSpec or a built LeoNetwork to "
                         f"sweep, got {type(source).__name__}")
    workers = resolve_workers(workers)
    profiler = spans.ACTIVE

    # One outcome per chunk, in schedule order: ``(chunk_result,
    # span_profile)``.
    if workers <= 1 or len(times_s) <= 1:
        shards = [(0, len(times_s))]
        outcomes = [(_compute_chunk(source, pair_keys, times_s), None)]
    else:
        spec = (source if isinstance(source, NetworkSpec)
                else NetworkSpec.from_network(source))
        shards = shard_snapshots(len(times_s), workers)
        payloads = [(index, spec, pair_keys, times_s[start:stop],
                     profiler.enabled)
                    for index, (start, stop) in enumerate(shards)]
        with spans.span("sweep.scatter_gather"), ProcessPoolExecutor(
                max_workers=len(payloads), mp_context=_mp_context()) as pool:
            outcomes = list(pool.map(_run_chunk, payloads))

    # Deterministic time-order merge: shard order is schedule order by
    # construction.  The same order governs span-profile adoption, so
    # merged traces are identical run-to-run regardless of worker
    # scheduling.
    with spans.span("sweep.merge"):
        timelines = splice_timelines(times_s,
                                     [outcome[0] for outcome in outcomes])
        if isinstance(profiler, spans.SpanProfiler):
            for index, ((_, profile), (start, stop)) in enumerate(
                    zip(outcomes, shards)):
                if profile is not None:
                    profiler.adopt(profile, chunk_index=index,
                                   snapshot_start=start, snapshot_stop=stop)
    return timelines
