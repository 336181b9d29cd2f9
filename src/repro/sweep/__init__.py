"""Snapshot-sweep engine (paper §3.1/§5.3 figure pipeline).

The one timeline walk: :func:`sweep_timelines` runs a snapshot schedule
over its ``source`` — a built network or a picklable :class:`NetworkSpec`
— in-process, or shards it into contiguous chunks, each evaluated in a
worker process that rebuilds the network from the spec, and splices
per-pair timelines back in deterministic time order — ``workers=N`` is
bit-identical to serial.

Entry points, all one :func:`sweep_timelines` call:
:meth:`repro.Hypatia.compute_timelines`, the ``repro sweep`` /
``repro rtt --workers`` CLI and the warm start
(:func:`repro.service.sweep_with_checkpoint` / ``resume_sweep``).
"""

from .engine import resolve_workers, shard_snapshots, sweep_timelines
from .spec import (ISL_BUILDERS, NetworkSpec, isl_builder_name,
                   register_isl_builder)

__all__ = [
    "NetworkSpec",
    "ISL_BUILDERS",
    "register_isl_builder",
    "isl_builder_name",
    "sweep_timelines",
    "shard_snapshots",
    "resolve_workers",
]
