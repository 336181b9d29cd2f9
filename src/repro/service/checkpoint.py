"""Versioned simulator checkpoints: one file, resumable anywhere.

A checkpoint file is::

    MAGIC | header-length (8 bytes, big-endian) | JSON header | pickle

The JSON header carries everything a reader needs *before* trusting the
payload — format version, engine, simulated time, and the
:func:`spec_fingerprint` of the :class:`~repro.sweep.spec.NetworkSpec`
that built the simulator — so version and spec-compatibility checks
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

import dataclasses
import enum
import functools
import hashlib
import json
import math
import os
import pickle
from typing import Any, BinaryIO, Dict, Iterator, Optional, Tuple

import numpy as np

from ..sweep.spec import NetworkSpec

__all__ = [
    "CHECKPOINT_FORMAT_VERSION", "CHECKPOINT_MAGIC",
    "Checkpoint", "CheckpointError", "CheckpointVersionError",
    "CheckpointSpecError", "spec_fingerprint",
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
CHECKPOINT_FORMAT_VERSION = 7

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
# Spec fingerprinting
# ----------------------------------------------------------------------

_PLAIN_LEAVES = (bool, int, str)


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """A dataclass type's field names (``dataclasses.fields`` rebuilds
    its tuple per call, and a spec holds ~10^4 ``FlowRequest``s)."""
    return tuple(f.name for f in dataclasses.fields(cls))


def _canonical(value: Any) -> Any:
    """A JSON-expressible canonical form of spec-shaped data.

    Recursively normalizes the plain-data types a
    :class:`~repro.sweep.spec.NetworkSpec` is built from — frozen
    dataclasses, enums, tuples, numpy scalars/arrays, and objects whose
    whole state is their ``__dict__`` (``FaultSchedule``,
    ``WorkloadSchedule``) — so the fingerprint depends
    only on content, never on id()s, dict insertion history, or pickle
    protocol details.
    """
    # Most of a spec's ~4e4 values are plain leaves: answer those exact
    # types first (subclasses and non-finite floats take the chain below).
    kind = type(value)
    if value is None or kind in _PLAIN_LEAVES or (
            kind is float and math.isfinite(value)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {name: _canonical(getattr(value, name))
                       for name in _field_names(type(value))},
        }
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "name": value.name}
    if isinstance(value, dict):
        return {"__dict__": sorted(
            (str(k), _canonical(v)) for k, v in value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        return {"__ndarray__": str(value.dtype),
                "shape": list(value.shape),
                "data": value.tolist()}
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, float):
        if math.isnan(value):
            return {"__float__": "nan"}
        if math.isinf(value):
            return {"__float__": "inf" if value > 0 else "-inf"}
        return value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if hasattr(value, "__dict__"):
        return {
            "__object__": type(value).__name__,
            "state": _canonical(vars(value)),
        }
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for fingerprinting")


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: Sequence elements per piece of :func:`_canonical_json`.
_JSON_BATCH = 512


def _canonical_json(value: Any) -> Iterator[str]:
    """``json.dumps(_canonical(value), sort_keys=True, separators=(",",
    ":"))``, in pieces.

    Dataclasses, dicts and ``__dict__`` objects are written key by key
    (in sorted order, as ``sort_keys`` writes them) and sequences in
    batches of ``_JSON_BATCH`` elements, so the ~10^4 requests of a
    session's workload never exist as one canonical form or one string
    — about 7 MB at once, where the pieces take under 1 MB.
    """
    kind = type(value)
    if value is None or kind in _PLAIN_LEAVES or (
            kind is float and math.isfinite(value)):
        yield _ENCODE(value)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        yield '{"__dataclass__":' + _ENCODE(kind.__name__) + ',"fields":{'
        for i, name in enumerate(sorted(_field_names(kind))):
            yield ("," if i else "") + _ENCODE(name) + ":"
            yield from _canonical_json(getattr(value, name))
        yield "}}"
    elif isinstance(value, dict):
        keys = [str(key) for key in value]
        if len(set(keys)) < len(keys):
            # Equal key strings: _canonical orders those by value.
            yield _ENCODE(_canonical(value))
            return
        yield '{"__dict__":['
        for i, (key, item) in enumerate(sorted(
                zip(keys, value.values()), key=lambda pair: pair[0])):
            yield ("," if i else "") + "[" + _ENCODE(key) + ","
            yield from _canonical_json(item)
            yield "]"
        yield "]}"
    elif isinstance(value, (list, tuple)):
        yield "["
        for low in range(0, len(value), _JSON_BATCH):
            batch = [_canonical(item) for item in value[low:low + _JSON_BATCH]]
            # The batch's own brackets off: its items, comma-separated.
            yield ("," if low else "") + _ENCODE(batch)[1:-1]
        yield "]"
    elif (isinstance(value, (enum.Enum, np.ndarray, np.generic, float,
                             bool, int, str))
          or not hasattr(value, "__dict__")):
        yield _ENCODE(_canonical(value))
    else:
        yield '{"__object__":' + _ENCODE(kind.__name__) + ',"state":'
        yield from _canonical_json(vars(value))
        yield "}"


def spec_fingerprint(spec: NetworkSpec) -> str:
    """A stable sha256 content hash of a network spec.

    Two specs fingerprint equally iff they describe the same network,
    independent of process, platform, or ``PYTHONHASHSEED`` — the hash
    goes into every checkpoint header and gates every resume.  It hashes
    the canonical JSON of the spec (:func:`_canonical`), streamed
    (:func:`_canonical_json`).
    """
    digest = hashlib.sha256()
    for piece in _canonical_json(spec):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


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
        self.spec_hash = (spec_fingerprint(spec) if spec_hash is None
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
            expected_hash = spec_fingerprint(expected_spec)
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
            pickled_hash = spec_fingerprint(spec)
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
