"""Service checkpoints: one JSON document that replays to the live state.

A live service is a deterministic function of its initial spec and of the
mutations applied to it since, so a checkpoint is the document
``{format, engine, horizon_s, epoch_s, link_capacity_bps, time_s, meta,
spec_hash, spec, log, state_digest}``: ``spec`` the initial
:class:`~repro.sweep.spec.NetworkSpec` and ``spec_hash`` its fingerprint,
``log`` the service's mutation log (``[clock_s, method, args]``) and
``state_digest`` its ``LiveSimulationService.state_digest()``.  The
header is the document without ``spec`` and ``log``.

A restore refuses another format (:class:`CheckpointVersionError`), a bad
spec (:class:`CheckpointSpecError`) and a malformed field or log record
(:class:`CheckpointError`) before anything is built; then it rebuilds the
service, replays each entry (advance to its clock, call the same public
method), advances to ``time_s`` and refuses a service that digests
otherwise.  The replayed service rebuilds its own log.  A restore costs
the simulate time up to the checkpoint (DESIGN.md, "Live service &
checkpointing").
"""

from __future__ import annotations

import json
import math
import os
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..faults.schedule import FaultEvent, each, exact_int
from ..obs import spans
from ..sweep.spec import NetworkSpec
from ..traffic.arrivals import WorkloadSchedule

if TYPE_CHECKING:
    from .driver import LiveSimulationService

__all__ = [
    "CHECKPOINT_FORMAT", "ENGINES",
    "CheckpointError", "CheckpointVersionError", "CheckpointSpecError",
    "save_checkpoint", "load_checkpoint", "read_checkpoint_header",
]

#: The document layout and log vocabulary this build writes and reads.
CHECKPOINT_FORMAT = "repro-service-replay/1"

#: The engines a service runs, a checkpoint may name and the CLI offers:
#: the packet simulator and the max-min fluid engine.
ENGINES = ("packet", "fluid")


#: The mutating service methods a log entry may name, each with the
#: parser of its JSON argument.
_COMMANDS: Dict[str, Callable[[Any], Any]] = {
    "attach_workload": WorkloadSchedule.from_dict,
    "detach_workload": lambda args: exact_int(args, "workload handle"),
    "inject_fault": lambda args: each(args, FaultEvent.from_dict, "events"),
}


def json_text(value: Any) -> str:
    """``value`` as this module's JSON: keys sorted, no spaces."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def json_text_with(fields: Dict[str, Any], key: str, text: str) -> str:
    """``json_text({**fields, key: value})`` where ``text`` is already
    ``json_text(value)``: the keys sort, so ``text`` is spliced between
    the fields that sort before ``key`` and those after, and ``value`` is
    not encoded again."""
    parts = (json_text({k: v for k, v in fields.items() if k < key}),
             f'{{"{key}":{text}}}',
             json_text({k: v for k, v in fields.items() if k > key}))
    return "{" + ",".join(part[1:-1] for part in parts if part != "{}") + "}"


def _positive(value: Any) -> bool:
    return type(value) is float and 0.0 < value < math.inf


#: ``(field, what it must be, test)`` of every document field; the writer
#: stamps times and rates as floats, so JSON hands them back as floats.
_FIELDS = (
    ("engine", f"one of {', '.join(ENGINES)}",
     lambda value: value in ENGINES),
    ("horizon_s", "a finite positive number", _positive),
    ("epoch_s", "a finite positive number", _positive),
    ("link_capacity_bps", "a finite positive number", _positive),
    ("time_s", "a finite number >= 0",
     lambda value: type(value) is float and 0.0 <= value < math.inf),
    ("meta", "a JSON object", lambda value: isinstance(value, dict)),
    ("spec_hash", "a string", lambda value: isinstance(value, str)),
    ("state_digest", "a string", lambda value: isinstance(value, str)),
    ("spec", "a JSON object", lambda value: isinstance(value, dict)),
    ("log", "a list", lambda value: isinstance(value, list)),
)

#: What parsing outside input, or replaying a command, can fail with.
_INPUT_ERRORS = (ArithmeticError, LookupError, TypeError, ValueError)


class CheckpointError(RuntimeError):
    """A checkpoint could not be read, written, or safely resumed."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint's format is not the one this build writes."""


class CheckpointSpecError(CheckpointError):
    """The checkpoint's network spec does not match the expected one."""


@spans.timed("service.checkpoint_save")
def save_checkpoint(path: str, service: LiveSimulationService,
                    meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Write ``service`` to a checkpoint file; returns its header (whose
    ``meta`` is the service's own updated with ``meta``).  A temporary
    file beside ``path`` replaces it only once complete: a failed write
    (meta that is not JSON, full disk, killed process) leaves the
    previous checkpoint as it was."""
    header = {
        "format": CHECKPOINT_FORMAT, "engine": service.engine,
        "horizon_s": service.horizon_s, "epoch_s": service.epoch_s,
        "link_capacity_bps": service.link_capacity_bps,
        "time_s": service.clock_s,
        "meta": {**service.meta, **(meta or {})},
        "spec_hash": service.initial_spec_hash,
    }
    # The log is encoded once, for the digest and the file; the spec goes
    # in last, as the service's cached JSON text.
    log_text = json_text(service.log)
    header["state_digest"] = service.state_digest(log_text)
    text = json_text_with(header, "log", log_text)
    text = f'{text[:-1]},"spec":{service.initial_spec_json}}}'
    temp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp_path, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return header


def _read_document(path: str) -> Dict[str, Any]:
    """The checkpoint document at ``path``, format and fields checked."""
    with open(path, "rb") as stream:
        try:
            document = json.load(stream)
        except (ValueError, RecursionError) as error:
            raise CheckpointError(f"{path}: not a repro checkpoint (not a "
                                  f"JSON document: {error})") from error
    if not isinstance(document, dict) or not isinstance(
            document.get("format"), str):
        raise CheckpointError(f"{path}: not a repro checkpoint (no "
                              f"'format' field)")
    if document["format"] != CHECKPOINT_FORMAT:
        raise CheckpointVersionError(
            f"{path}: checkpoint format {document['format']!r} is not "
            f"this build's {CHECKPOINT_FORMAT!r}; re-create the "
            f"checkpoint with this version")
    for field, expected, valid in _FIELDS:
        if not valid(document.get(field)):
            raise CheckpointError(
                f"{path}: checkpoint field {field!r} is "
                f"{document.get(field)!r}, not {expected}")
    return document


def read_checkpoint_header(path: str) -> Dict[str, Any]:
    """A checkpoint's header — the document without ``spec`` and
    ``log`` — checked as a load checks it, with nothing built or
    replayed (spec checks are the caller's)."""
    document = _read_document(path)
    return {key: value for key, value in document.items()
            if key not in ("spec", "log")}


def _parse_log(path: str, document: Dict[str, Any]) -> List[tuple]:
    """``(clock_s, command, parsed args)`` of every log entry, refusing a
    malformed one or a clock that runs backwards or past ``time_s``."""
    entries: List[tuple] = []
    previous, time_s = 0.0, document["time_s"]
    for index, entry in enumerate(document["log"]):
        try:
            clock_s, command, args = entry
            if not (type(clock_s) is float
                    and previous <= clock_s <= time_s):
                raise ValueError(f"clock {clock_s!r} is not in "
                                 f"[{previous}, {time_s}]")
            entries.append((clock_s, command, _COMMANDS[command](args)))
        except _INPUT_ERRORS as error:
            raise CheckpointError(f"{path}: checkpoint log entry {index} "
                                  f"is malformed ({error!r})") from error
        previous = clock_s
    return entries


@spans.timed("service.checkpoint_load")
def load_checkpoint(path: str,
                    expected_spec: Optional[NetworkSpec] = None
                    ) -> LiveSimulationService:
    """Read a checkpoint file and replay it into a live service (raising
    as the module docstring describes).  ``expected_spec``, when given,
    is the spec the caller resumes against: it must hash to
    ``spec_hash``."""
    from .driver import LiveSimulationService
    document = _read_document(path)
    spec_hash = document["spec_hash"]
    if expected_spec is not None:
        expected_hash = expected_spec.fingerprint()
        if expected_hash != spec_hash:
            raise CheckpointSpecError(
                f"{path}: checkpoint was taken on a different network "
                f"spec (checkpoint {spec_hash[:12]}, expected "
                f"{expected_hash[:12]}); resume against the original spec")
    try:
        spec = NetworkSpec.from_dict(document["spec"])
    except _INPUT_ERRORS as error:
        raise CheckpointSpecError(
            f"{path}: checkpoint spec is malformed ({error!r})") from error
    if spec.fingerprint() != spec_hash:
        raise CheckpointSpecError(
            f"{path}: spec_hash does not match the checkpoint's spec "
            f"(file corrupt or tampered)")
    log = _parse_log(path, document)

    try:
        service = LiveSimulationService(
            spec, engine=document["engine"],
            horizon_s=document["horizon_s"], epoch_s=document["epoch_s"],
            link_capacity_bps=document["link_capacity_bps"],
            meta=document["meta"])
        for clock_s, command, args in log:
            service.advance_to(clock_s)
            getattr(service, command)(args)
        service.advance_to(document["time_s"])
    except _INPUT_ERRORS + (RuntimeError,) as error:
        raise CheckpointError(
            f"{path}: replay failed ({error!r})") from error
    digest = service.state_digest()
    if digest != document["state_digest"]:
        raise CheckpointError(
            f"{path}: replay diverged: the replayed service digests to "
            f"{digest[:12]}, the checkpoint recorded "
            f"{document['state_digest'][:12]}")
    return service
