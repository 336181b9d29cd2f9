"""Live simulation service: checkpoint/restore + epoch-paced driving.

The batch pipeline (build → run → report) becomes a *platform* here:

* :mod:`repro.service.checkpoint` — JSON replay checkpoints: the
  initial spec, the mutation log and a state digest;
* :mod:`repro.service.driver` — :class:`LiveSimulationService`, the
  sync core that advances epochs, mutates traffic/faults in flight,
  and checkpoints/restores bit-identically;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio JSON-over-TCP command API behind ``repro serve`` /
  ``repro checkpoint --connect`` / ``repro resume``.

The backbone guarantee, enforced by ``tests/test_service.py`` and the
``make bench-service`` parity gate: **resume ≡ never-stopped**, bit
for bit, across the packet engine and the max-min fluid engine.
"""

from .checkpoint import (CHECKPOINT_FORMAT, CheckpointError,
                         CheckpointSpecError, CheckpointVersionError,
                         load_checkpoint, read_checkpoint_header,
                         save_checkpoint)
from .client import ServiceClient, ServiceClientError
from .driver import LiveSimulationService, ServiceError
from .server import ServiceServer, serve_forever

__all__ = [
    "CHECKPOINT_FORMAT",
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
    "save_checkpoint",
    "serve_forever",
]
