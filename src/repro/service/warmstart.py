"""Sweep warm-start: checkpoint a snapshot sweep, resume it later.

A snapshot sweep (:func:`repro.sweep.sweep_timelines`) walks an array
of independent snapshot instants, so it partitions exactly like the
sweep engine's own chunking: results over ``times_s[:k]`` plus results
over ``times_s[k:]``, concatenated, are bit-identical to one pass over
the full schedule — whatever the worker count of either part (each
sweep chunk rebuilds its network and routing state from the spec;
nothing carries across the cut that isn't already recomputed per
chunk).

:func:`checkpoint_sweep` stores the completed prefix behind the same
versioned, spec-hashed header as simulator checkpoints;
:func:`resume_sweep` computes only the remainder and splices the two.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sweep.engine import sweep_timelines
from ..sweep.spec import NetworkSpec
from ..topology.dynamic_state import PairTimeline
from .checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                         save_checkpoint)

__all__ = ["checkpoint_sweep", "resume_sweep", "sweep_with_checkpoint"]

PairKey = Tuple[int, int]


def checkpoint_sweep(path: str, spec: NetworkSpec,
                     pairs: Sequence[PairKey], times_s: np.ndarray,
                     prefix: Dict[PairKey, PairTimeline],
                     next_index: int,
                     meta: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
    """Save a partially-completed sweep.

    Args:
        path: Checkpoint file to write.
        spec: The sweep's network spec.
        pairs: The tracked pairs, in sweep order.
        times_s: The *full* snapshot schedule.
        prefix: Timelines over ``times_s[:next_index]`` (what has been
            computed so far).
        next_index: First snapshot index still to compute.
        meta: Extra provenance for the header.

    Returns:
        The stamped checkpoint header.
    """
    times_s = np.asarray(times_s, dtype=np.float64)
    if not 0 <= next_index <= len(times_s):
        raise ValueError(
            f"next_index {next_index} outside [0, {len(times_s)}]")
    pair_keys = [(int(a), int(b)) for a, b in pairs]
    for pair in pair_keys:
        timeline = prefix.get(pair)
        if timeline is None:
            raise ValueError(f"prefix is missing pair {pair}")
        if len(timeline.distances_m) != next_index:
            raise ValueError(
                f"pair {pair} prefix covers {len(timeline.distances_m)} "
                f"snapshots, expected {next_index}")
    payload = {
        "pairs": pair_keys,
        "times_s": times_s,
        "next_index": int(next_index),
        "prefix": {pair: (prefix[pair].distances_m, prefix[pair].paths)
                   for pair in pair_keys},
    }
    time_at = float(times_s[next_index]) if next_index < len(times_s) \
        else (float(times_s[-1]) if len(times_s) else 0.0)
    return save_checkpoint(path, Checkpoint(
        spec=spec, engine="sweep", time_s=time_at, payload=payload,
        meta=dict(meta or {})))


def resume_sweep(path: str, workers: Optional[int] = None,
                 metrics=None,
                 expected_spec: Optional[NetworkSpec] = None,
                 mp_context=None) -> Dict[PairKey, PairTimeline]:
    """Finish a checkpointed sweep; bit-identical to never stopping.

    The remaining snapshots run through :func:`repro.sweep.
    sweep_timelines` with whatever ``workers`` the caller picks — the
    determinism contract makes every count agree — and the prefix and
    remainder concatenate per pair.
    """
    checkpoint = load_checkpoint(path, expected_spec=expected_spec)
    if checkpoint.engine != "sweep":
        raise CheckpointError(
            f"{path}: engine {checkpoint.engine!r} is not a sweep "
            f"checkpoint; use LiveSimulationService.resume for "
            f"simulator checkpoints")
    payload = checkpoint.payload
    pairs: List[PairKey] = [tuple(pair) for pair in payload["pairs"]]
    times_s = np.asarray(payload["times_s"], dtype=np.float64)
    next_index = int(payload["next_index"])
    prefix = payload["prefix"]

    if next_index >= len(times_s):
        remainder: Dict[PairKey, PairTimeline] = {}
    else:
        remainder = sweep_timelines(
            checkpoint.spec, pairs, times_s[next_index:], workers=workers,
            metrics=metrics, mp_context=mp_context)

    merged: Dict[PairKey, PairTimeline] = {}
    for pair in pairs:
        distances_head, paths_head = prefix[pair]
        if pair in remainder:
            tail = remainder[pair]
            distances = np.concatenate([distances_head, tail.distances_m])
            paths = list(paths_head) + list(tail.paths)
        else:
            distances = np.asarray(distances_head)
            paths = list(paths_head)
        merged[pair] = PairTimeline(src_gid=pair[0], dst_gid=pair[1],
                                    times_s=times_s, distances_m=distances,
                                    paths=paths)
    return merged


def sweep_with_checkpoint(spec: NetworkSpec, pairs: Sequence[PairKey],
                          times_s: np.ndarray, checkpoint_path: str,
                          checkpoint_index: int,
                          workers: Optional[int] = None,
                          metrics=None,
                          meta: Optional[Dict[str, Any]] = None
                          ) -> Dict[str, Any]:
    """Run a sweep up to ``checkpoint_index`` and checkpoint there.

    The warm-start entry point: compute ``times_s[:checkpoint_index]``
    now, persist, and let :func:`resume_sweep` (possibly another
    process, another day, another worker count) finish the schedule.
    Returns the checkpoint header.
    """
    times_s = np.asarray(times_s, dtype=np.float64)
    if not 0 < checkpoint_index <= len(times_s):
        raise ValueError(
            f"checkpoint_index {checkpoint_index} outside "
            f"(0, {len(times_s)}]")
    prefix = sweep_timelines(spec, pairs, times_s[:checkpoint_index],
                             workers=workers, metrics=metrics)
    return checkpoint_sweep(checkpoint_path, spec, pairs, times_s,
                            prefix, checkpoint_index, meta=meta)
