"""Sweep warm-start: checkpoint a snapshot sweep, resume it later.

A snapshot sweep (:func:`repro.sweep.sweep_timelines`) walks an array
of independent snapshot instants, so it partitions exactly like the
sweep engine's own chunking: results over ``times_s[:k]`` plus results
over ``times_s[k:]``, concatenated, are bit-identical to one pass over
the full schedule — whatever the worker count of either part (each
sweep chunk rebuilds its network and routing state from the spec;
nothing carries across the cut that isn't already recomputed per
chunk).

:func:`sweep_with_checkpoint` stores the completed prefix behind the
same versioned, spec-hashed header as simulator checkpoints;
:func:`resume_sweep` computes only the remainder and splices the two
with the sweep engine's own :func:`~repro.sweep.engine.splice_timelines`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..sweep.engine import splice_timelines, sweep_timelines
from ..sweep.spec import NetworkSpec
from ..topology.dynamic_state import PairTimeline
from .checkpoint import (Checkpoint, CheckpointError, load_checkpoint,
                         save_checkpoint)

__all__ = ["resume_sweep", "sweep_with_checkpoint"]

PairKey = Tuple[int, int]


def _as_piece(timelines: Dict[PairKey, PairTimeline]
              ) -> Dict[PairKey, tuple]:
    """Timelines as the per-pair ``(distances_m, paths)`` tuples the
    checkpoint payload stores and :func:`splice_timelines` joins."""
    return {pair: (timeline.distances_m, timeline.paths)
            for pair, timeline in timelines.items()}


def resume_sweep(path: str, workers: Optional[int] = None,
                 metrics=None,
                 expected_spec: Optional[NetworkSpec] = None
                 ) -> Dict[PairKey, PairTimeline]:
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
    times_s = np.asarray(payload["times_s"], dtype=np.float64)
    next_index = int(payload["next_index"])
    pieces = [payload["prefix"]]
    if next_index < len(times_s):
        remainder = sweep_timelines(
            checkpoint.spec, payload["pairs"], times_s[next_index:],
            workers=workers, metrics=metrics)
        pieces.append(_as_piece(remainder))
    return splice_timelines(times_s, pieces)


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
    payload = {
        "pairs": list(prefix),
        "times_s": times_s,
        "next_index": int(checkpoint_index),
        "prefix": _as_piece(prefix),
    }
    return save_checkpoint(checkpoint_path, Checkpoint(
        spec=spec, engine="sweep",
        time_s=float(times_s[min(checkpoint_index, len(times_s) - 1)]),
        payload=payload, meta=dict(meta or {})))
