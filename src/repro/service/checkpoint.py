"""Versioned simulator checkpoints: one file, resumable anywhere.

A checkpoint file is::

    MAGIC | header-length (8 bytes, big-endian) | JSON header | pickle

The JSON header carries everything a reader needs *before* trusting the
payload — format version, engine, simulated time, and the
:meth:`~repro.sweep.spec.NetworkSpec.fingerprint` of the spec that built
the simulator — so version and spec-compatibility checks
never unpickle anything.  The pickle payload is the live object graph
(event queue, devices, transports, fluid run state, RNG streams, ...);
determinism of the restore is what ``tests/test_service.py`` proves.

Compatibility contract:

* :data:`CHECKPOINT_FORMAT_VERSION` bumps on any layout change; loading
  a mismatched version raises :class:`CheckpointVersionError`.
* Resuming against a different network spec (different shells, ground
  segment, faults, workload, ...) raises :class:`CheckpointSpecError`
  unless the caller explicitly opts out — silently resuming a Kuiper
  checkpoint on a Starlink network is the failure mode this guards.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from typing import Any, BinaryIO, Dict, Optional

from ..sweep.spec import NetworkSpec

__all__ = [
    "CHECKPOINT_FORMAT_VERSION", "CHECKPOINT_MAGIC",
    "Checkpoint", "CheckpointError", "CheckpointVersionError",
    "CheckpointSpecError",
    "save_checkpoint", "load_checkpoint", "read_checkpoint_header",
]

#: Bump on any change to the file layout or the pickled payload shape.
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
CHECKPOINT_FORMAT_VERSION = 9

#: File signature; also rejects accidental non-checkpoint files early.
CHECKPOINT_MAGIC = b"REPRO-CKPT\n"

#: The engines a checkpoint may hold.
_ENGINES = ("packet", "fluid", "aimd")

#: ``(field, what it must be, test)`` of every header field a load reads,
#: checked before anything is unpickled.  The writer stamps ``time_s`` as
#: a float, so JSON hands it back as one.
_HEADER_FIELDS = (
    ("format_version", "an integer", lambda value: type(value) is int),
    ("engine", f"one of {', '.join(_ENGINES)}",
     lambda value: value in _ENGINES),
    ("time_s", "a finite number",
     lambda value: type(value) is float and math.isfinite(value)),
    ("meta", "a JSON object", lambda value: isinstance(value, dict)),
)

_HEADER_LEN_BYTES = 8
#: What unpickling, indexing and fingerprinting a corrupt or foreign body
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
# The checkpoint container
# ----------------------------------------------------------------------

class Checkpoint:
    """One restorable simulator state plus its identifying header.

    Args:
        spec: The network spec the simulator was built from.
        engine: ``"packet"``, ``"fluid"`` or ``"aimd"``.
        time_s: Simulated time the state was captured at.
        payload: The picklable live object graph — for the packet
            engine the simulator and its applications, for the fluid
            engines the simulation plus its
            :class:`~repro.fluid.engine.FluidRunState`.
        meta: Free-form provenance (scenario name, epoch length, ...);
            must be JSON-expressible.
        format_version: Stamped automatically; only loads override it.
        spec_hash: Stamped automatically from ``spec``; only loads
            override it.
    """

    def __init__(self, spec: NetworkSpec, engine: str, time_s: float,
                 payload: Dict[str, Any],
                 meta: Optional[Dict[str, Any]] = None,
                 format_version: int = CHECKPOINT_FORMAT_VERSION,
                 spec_hash: Optional[str] = None) -> None:
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; "
                             f"use 'packet', 'fluid' or 'aimd'")
        self.spec = spec
        self.engine = engine
        self.time_s = float(time_s)
        self.payload = payload
        self.meta = dict(meta or {})
        self.format_version = int(format_version)
        self.spec_hash = (spec.fingerprint() if spec_hash is None
                          else spec_hash)

    def header(self) -> Dict[str, Any]:
        """The JSON header identifying this checkpoint."""
        return {
            "format_version": self.format_version,
            "spec_hash": self.spec_hash,
            "engine": self.engine,
            "time_s": self.time_s,
            "meta": self.meta,
        }

    def __repr__(self) -> str:
        return (f"Checkpoint(engine={self.engine!r}, t={self.time_s}, "
                f"v{self.format_version}, "
                f"spec={self.spec_hash[:12]})")


# ----------------------------------------------------------------------
# File I/O
# ----------------------------------------------------------------------

def _write(stream: BinaryIO, checkpoint: Checkpoint) -> None:
    header = json.dumps(checkpoint.header(), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    stream.write(CHECKPOINT_MAGIC)
    stream.write(len(header).to_bytes(_HEADER_LEN_BYTES, "big"))
    stream.write(header)
    pickle.dump({"spec": checkpoint.spec, "payload": checkpoint.payload},
                stream, protocol=pickle.HIGHEST_PROTOCOL)


def save_checkpoint(path: str, checkpoint: Checkpoint) -> Dict[str, Any]:
    """Write a checkpoint file; returns the header that was stamped.

    The bytes go to a temporary file beside ``path`` that replaces it
    only once complete: a write that fails (unpicklable payload, full
    disk, killed process) leaves the previous checkpoint as it was.
    """
    temp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp_path, "wb") as stream:
            _write(stream, checkpoint)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return checkpoint.header()


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
                    ) -> Checkpoint:
    """Read, validate, and unpickle a checkpoint file.

    Args:
        path: The checkpoint file.
        expected_spec: When given, the spec the caller is about to
            resume against; its fingerprint must match the header's.

    Raises:
        CheckpointVersionError: Header format version differs from
            :data:`CHECKPOINT_FORMAT_VERSION`.
        CheckpointSpecError: ``expected_spec``'s fingerprint or the
            pickled spec's does not match the header's ``spec_hash``.
        CheckpointError: Bad magic, truncation, corrupt header, or a
            body this build cannot unpickle (e.g. it names a class that
            has since been removed).
    """
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
        # the fingerprint of whatever object took the spec's place.
        try:
            body = pickle.load(stream)
            spec, payload = body["spec"], body["payload"]
            pickled_hash = spec.fingerprint()
        except _BODY_ERRORS as error:
            raise CheckpointError(
                f"{path}: body cannot be unpickled by this build "
                f"({type(error).__name__}: {error})") from error
    if pickled_hash != spec_hash:
        raise CheckpointSpecError(
            f"{path}: header spec hash does not match the pickled spec "
            f"(file corrupt or tampered)")
    return Checkpoint(spec=spec, engine=header["engine"],
                      time_s=header["time_s"], payload=payload,
                      meta=header["meta"], format_version=version,
                      spec_hash=spec_hash)
