"""Live simulation service: checkpoint/restore + epoch-paced driving.

The batch pipeline (build → run → report) becomes a *platform* here:

* :mod:`repro.service.checkpoint` — versioned, spec-hashed state files
  capturing a whole live simulator (DES event queue, transports, fluid
  run state, RNG stream positions);
* :mod:`repro.service.driver` — :class:`LiveSimulationService`, the
  sync core that advances epochs, mutates traffic/faults in flight,
  and checkpoints/restores bit-identically;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio JSON-over-TCP command API behind ``repro serve`` /
  ``repro checkpoint --connect`` / ``repro resume``;
* :mod:`repro.service.warmstart` — checkpoint/resume for snapshot
  sweeps (:func:`sweep_with_checkpoint` / :func:`resume_sweep`).

The backbone guarantee, enforced by ``tests/test_service.py`` and the
``make bench-service`` parity gate: **resume ≡ never-stopped**, bit
for bit, across the packet engine and the max-min fluid engine.
"""

from .checkpoint import (CHECKPOINT_FORMAT_VERSION, Checkpoint,
                         CheckpointError, CheckpointSpecError,
                         CheckpointVersionError, load_checkpoint,
                         read_checkpoint_header, save_checkpoint,
                         spec_fingerprint)
from .client import ServiceClient, ServiceClientError
from .driver import LiveSimulationService, ServiceError
from .server import ServiceServer, serve_forever
from .warmstart import resume_sweep, sweep_with_checkpoint

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointSpecError",
    "CheckpointVersionError",
    "LiveSimulationService",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "ServiceServer",
    "load_checkpoint",
    "read_checkpoint_header",
    "resume_sweep",
    "save_checkpoint",
    "serve_forever",
    "spec_fingerprint",
    "sweep_with_checkpoint",
]
