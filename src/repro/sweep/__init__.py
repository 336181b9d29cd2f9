"""Snapshot-sweep engine (paper §3.1/§5.3 figure pipeline).

The one timeline walk: :func:`sweep_timelines` runs a snapshot schedule
over its ``source`` — a built network or a picklable :class:`NetworkSpec`
— in-process, or shards it into contiguous chunks, each evaluated in a
worker process that rebuilds the network from the spec, and splices
per-pair timelines back in deterministic time order — ``workers=N`` is
bit-identical to serial.

Entry points, both one :func:`sweep_timelines` call:
:meth:`repro.Hypatia.compute_timelines` and the ``repro sweep`` /
``repro rtt --workers`` CLI.
"""

from .engine import resolve_workers, shard_snapshots, sweep_timelines
from .spec import NetworkSpec

__all__ = [
    "NetworkSpec",
    "sweep_timelines",
    "shard_snapshots",
    "resolve_workers",
]
