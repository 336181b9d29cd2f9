"""Versioned simulator checkpoints: one file, resumable anywhere.

A checkpoint file is::

    MAGIC | header-length (8 bytes, big-endian) | JSON header | pickle

The JSON header carries everything a reader needs *before* trusting the
body — format version, engine, simulated time, and the
:meth:`~repro.sweep.spec.NetworkSpec.fingerprint` of the spec that built
the simulator — so version and spec-compatibility checks never unpickle
anything.  The body is the pickled
:class:`~repro.service.driver.LiveSimulationService` itself, with its
whole object graph (event queue, devices, transports, fluid run state,
RNG streams, ...); determinism of the restore is what
``tests/test_service.py`` proves.

Compatibility contract:

* :data:`CHECKPOINT_FORMAT_VERSION` bumps on any layout change; loading
  a mismatched version raises :class:`CheckpointVersionError`.
* Resuming against a different network spec (different shells, ground
  segment, faults, workload, ...) than the caller expects raises
  :class:`CheckpointSpecError` — silently resuming a Kuiper checkpoint
  on a Starlink network is the failure mode this guards.
* A body that is not a service is refused before its spec is hashed;
  a service whose spec does not hash to the header's ``spec_hash`` is
  refused as corrupt.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from typing import TYPE_CHECKING, Any, BinaryIO, Dict, Optional

from ..sweep.spec import NetworkSpec

if TYPE_CHECKING:
    from .driver import LiveSimulationService

__all__ = [
    "CHECKPOINT_FORMAT_VERSION", "CHECKPOINT_MAGIC", "ENGINES",
    "CheckpointError", "CheckpointVersionError", "CheckpointSpecError",
    "save_checkpoint", "load_checkpoint", "read_checkpoint_header",
]

#: Bump on any change to the file layout or the pickled body's shape.
#: v2: the packet engine's pending events became 5-field records.
#: v3: fluid run states carry ``flow_class`` (and an object-array
#: ``frozen_paths``); the simulation keeps classes, not per-flow pairs.
#: v4: ``NetworkSpec`` and ``LeoNetwork`` lost ``weather`` (rain is a
#: fault event), so a v3 spec no longer fingerprints as it was saved.
#: v5: the pickled service lost ``_arrival_streams``, and the ``"sweep"``
#: engine (sweep warm-start payloads) is gone.
#: v6: fluid run states hold the static baseline as a class path table
#: (``frozen_table`` / ``frozen_counts``, no ``frozen_paths``), and the
#: fluid simulation a repairing router (``_router``) plus class pairs.
#: v7: a pickled ``Constellation`` holds element arrays only; its
#: per-satellite objects are built on demand and never pickled.
#: v8: ``spec_hash`` is :meth:`NetworkSpec.fingerprint` (an explicit
#: field record plus packed request arrays), not a reflective JSON hash.
#: v9: ``NetworkSpec`` records only a network's inputs (no constellation
#: label, no static dead-satellite set: a dead satellite is an outage
#: fault), and ``LeoNetwork`` names its ISL builder instead of holding
#: the callable, so every spec pickles and hashes otherwise.
#: v10: the body is the pickled ``LiveSimulationService`` itself, not a
#: ``{"spec": ..., "payload": {"service": ...}}`` dict.
#: v11: the spawner's flow-factory object carries only a controller name
#: (no shared state), and the learned controller that used it is gone.
#: v12: a ``WorkloadSpawner`` holds its controller's name instead of a
#: flow-factory object (``repro.cc.factory`` is gone).
#: v13: no wall-clock fields (the simulator's stats, the fluid run
#: state); the ``PacketSimulator`` numbers its flows itself, packets
#: carry no global id, and the event queue's sequence is a plain int.
CHECKPOINT_FORMAT_VERSION = 13

#: File signature; also rejects accidental non-checkpoint files early.
CHECKPOINT_MAGIC = b"REPRO-CKPT\n"

#: The engines a service runs, and so a checkpoint header may name.
ENGINES = ("packet", "fluid", "aimd")

#: ``(field, what it must be, test)`` of every header field a load reads,
#: checked before anything is unpickled.  The writer stamps ``time_s`` as
#: a float, so JSON hands it back as one.
_HEADER_FIELDS = (
    ("format_version", "an integer", lambda value: type(value) is int),
    ("engine", f"one of {', '.join(ENGINES)}",
     lambda value: value in ENGINES),
    ("time_s", "a finite number",
     lambda value: type(value) is float and math.isfinite(value)),
    ("meta", "a JSON object", lambda value: isinstance(value, dict)),
)

_HEADER_LEN_BYTES = 8
#: What unpickling and fingerprinting a corrupt or foreign body
#: raises (bit flips reach string decoding, object construction, length
#: fields and attribute lookup as well as the pickle opcodes themselves).
_BODY_ERRORS = (pickle.UnpicklingError, EOFError, ImportError,
                AttributeError, LookupError, TypeError, ValueError,
                ArithmeticError, MemoryError)
#: Sanity bound on the JSON header (a header is a few hundred bytes).
_MAX_HEADER_BYTES = 1 << 20


class CheckpointError(RuntimeError):
    """A checkpoint could not be read, written, or safely resumed."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint's format version does not match this build."""


class CheckpointSpecError(CheckpointError):
    """The checkpoint's network spec does not match the expected one."""


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------

def save_checkpoint(path: str, service: LiveSimulationService,
                    meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Write ``service`` to a checkpoint file; returns the stamped header.

    The header is read off the service: its spec's fingerprint, its
    engine, its clock, and its own ``meta`` updated with ``meta`` (and
    given ``horizon_s`` / ``epoch_s`` unless either is named already).
    The bytes go to a temporary file beside ``path`` that replaces it
    only once complete: a write that fails (unpicklable state, full
    disk, killed process) leaves the previous checkpoint as it was.
    """
    merged_meta = {**service.meta, **(meta or {})}
    merged_meta.setdefault("horizon_s", service.horizon_s)
    merged_meta.setdefault("epoch_s", service.epoch_s)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "spec_hash": service.spec.fingerprint(),
        "engine": service.engine,
        "time_s": float(service.clock_s),
        "meta": merged_meta,
    }
    raw = json.dumps(header, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    temp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp_path, "wb") as stream:
            stream.write(CHECKPOINT_MAGIC)
            stream.write(len(raw).to_bytes(_HEADER_LEN_BYTES, "big"))
            stream.write(raw)
            pickle.dump(service, stream, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return header


def _read_header(stream: BinaryIO, path: str) -> Dict[str, Any]:
    magic = stream.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a repro checkpoint "
                              f"(bad magic {magic!r})")
    raw_len = stream.read(_HEADER_LEN_BYTES)
    if len(raw_len) != _HEADER_LEN_BYTES:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    header_len = int.from_bytes(raw_len, "big")
    if not 0 < header_len <= _MAX_HEADER_BYTES:
        raise CheckpointError(
            f"{path}: implausible header length {header_len}")
    raw = stream.read(header_len)
    if len(raw) != header_len:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw.decode("utf-8"))
    except ValueError as error:
        raise CheckpointError(
            f"{path}: corrupt checkpoint header: {error}") from error
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: checkpoint header is not a JSON "
                              f"object")
    for field, expected, valid in _HEADER_FIELDS:
        if not valid(header.get(field)):
            raise CheckpointError(
                f"{path}: checkpoint header field {field!r} is "
                f"{header.get(field)!r}, not {expected}")
    return header


def read_checkpoint_header(path: str) -> Dict[str, Any]:
    """The JSON header of a checkpoint file, *without* unpickling.

    Safe on any file: raises :class:`CheckpointError` (never an
    unpickling side effect) on non-checkpoints, and performs version or
    spec checks only when the caller does.
    """
    with open(path, "rb") as stream:
        return _read_header(stream, path)


def load_checkpoint(path: str,
                    expected_spec: Optional[NetworkSpec] = None
                    ) -> LiveSimulationService:
    """Read, validate, and unpickle the service a checkpoint file holds.

    Args:
        path: The checkpoint file.
        expected_spec: When given, the spec the caller is about to
            resume against; its fingerprint must match the header's.

    Raises:
        CheckpointVersionError: Header format version differs from
            :data:`CHECKPOINT_FORMAT_VERSION`.
        CheckpointSpecError: ``expected_spec``'s fingerprint or the
            unpickled service spec's does not match the header's
            ``spec_hash``.
        CheckpointError: Bad magic, truncation, corrupt header, a body
            this build cannot unpickle (e.g. it names a class that has
            since been removed), or a body that is not a service.
    """
    from .driver import LiveSimulationService
    with open(path, "rb") as stream:
        header = _read_header(stream, path)
        version = header["format_version"]
        if version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: checkpoint format v{version} does not match "
                f"this build's v{CHECKPOINT_FORMAT_VERSION}; re-create "
                f"the checkpoint with this version")
        spec_hash = str(header.get("spec_hash", ""))
        if expected_spec is not None:
            expected_hash = expected_spec.fingerprint()
            if expected_hash != spec_hash:
                raise CheckpointSpecError(
                    f"{path}: checkpoint was taken on a different "
                    f"network spec (checkpoint {spec_hash[:12]}, "
                    f"expected {expected_hash[:12]}); resume against "
                    f"the original spec")
        # A damaged body can fail anywhere between the first opcode and
        # the fingerprint of a spec whose fields took bit flips.
        try:
            service = pickle.load(stream)
            if not isinstance(service, LiveSimulationService):
                raise CheckpointError(
                    f"{path}: body is a {type(service).__name__!r}, not "
                    f"a live service")
            pickled_hash = service.spec.fingerprint()
        except _BODY_ERRORS as error:
            raise CheckpointError(
                f"{path}: body cannot be unpickled by this build "
                f"({type(error).__name__}: {error})") from error
    if pickled_hash != spec_hash:
        raise CheckpointSpecError(
            f"{path}: header spec hash does not match the pickled spec "
            f"(file corrupt or tampered)")
    return service
