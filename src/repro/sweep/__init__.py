"""Parallel snapshot-sweep engine (paper §3.1/§5.3 figure pipeline).

Shards a snapshot schedule into contiguous chunks, evaluates each chunk
in a worker process that rebuilds the network from a picklable
:class:`NetworkSpec`, and merges per-pair timelines back in deterministic
time order — ``workers=N`` is bit-identical to serial.

Entry points: :meth:`repro.topology.dynamic_state.DynamicState.compute`
(``workers=``), :meth:`repro.Hypatia.compute_timelines` (``workers=``),
and the ``repro sweep`` / ``repro rtt --workers`` CLI.
"""

from .engine import (record_sweep_metrics, resolve_workers,
                     shard_snapshots, sweep_timelines)
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
    "record_sweep_metrics",
]
