"""The async service front-end: wall-clock pacing + JSON command API.

:class:`ServiceServer` owns a :class:`~repro.service.driver.
LiveSimulationService` and exposes it over newline-delimited JSON on a
TCP socket (stdlib ``asyncio`` only — no external dependencies):

* an optional **pacing loop** advances one epoch every
  ``epoch_s / pace`` wall seconds (``pace=2`` flies the constellation
  at twice real time; ``pace=0`` advances only on command), so the
  simulated constellation genuinely *flies* while clients watch.
  Epoch ``k`` is due ``k`` intervals after the loop started, so compute
  time does not add up into lag: an epoch that overruns its slot is
  followed at once by the next one;
* every line received is one command object ``{"cmd": ..., ...}`` and
  produces exactly one response line ``{"ok": true, ...}`` or
  ``{"ok": false, "error": ...}`` — trivially scriptable from any
  language, ``repro.service.client`` wraps it for Python and the CLI.

Commands mirror the sync driver: ``status``, ``advance`` (epochs),
``checkpoint`` (path), ``metrics`` / ``report`` / ``spans`` streaming
``repro.obs`` contents, ``attach_workload`` / ``detach_workload`` /
``inject_fault`` for live mutation, and ``stop``.

Commands and epoch advancement interleave on the event loop, never
concurrently — an epoch is the atomic unit, which is exactly the
granularity the checkpoint determinism contract is stated at.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, Optional

from ..obs import spans
from .checkpoint import _COMMANDS
from .driver import LiveSimulationService, ServiceError

__all__ = ["MAX_LINE_BYTES", "ServiceServer", "serve_forever"]

#: Longest command line the server buffers (asyncio's default is
#: 64 KiB, which a large ``attach_workload`` outgrows).  A longer line
#: is answered with an error and its connection closed.
MAX_LINE_BYTES = 1 << 18


class LineTooLong(ServiceError):
    """A command line longer than :data:`MAX_LINE_BYTES`."""


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """The next command line; what is left (maybe ``b""``) at end of stream.

    An over-long line is read past — in pieces, nothing kept — before
    :class:`LineTooLong` is raised, so the connection can be answered
    and closed with no input left unread (closing over unread input
    resets the connection and can lose the answer).
    """
    too_long = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as end:
            line = end.partial
        except asyncio.LimitOverrunError as overrun:
            await reader.readexactly(overrun.consumed)
            too_long = True
            continue
        if too_long:
            raise LineTooLong(
                f"command line exceeds {MAX_LINE_BYTES} bytes")
        return line


class ServiceServer:
    """One service instance behind a JSON-over-TCP command socket.

    Args:
        service: The live simulation to serve.
        host: Bind address (default loopback).
        port: Bind port (0 picks a free one; see :attr:`port` after
            :meth:`start`).
        pace: Wall-clock pacing factor — epochs advance automatically
            every ``service.epoch_s / pace`` wall seconds.  ``0``
            (default) disables auto-advance; clients drive time with
            the ``advance`` command.
    """

    def __init__(self, service: LiveSimulationService, host: str = "127.0.0.1",
                 port: int = 0, pace: float = 0.0) -> None:
        if not 0.0 <= pace < math.inf:
            raise ValueError(f"pace must be finite and >= 0, got {pace}")
        self.service = service
        self.host = host
        self.port = port
        self.pace = pace
        self._server: Optional[asyncio.AbstractServer] = None
        self._pacer: Optional[asyncio.Task] = None
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the pacing loop (if paced)."""
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.pace > 0.0:
            self._pacer = asyncio.ensure_future(self._pace_epochs())

    async def _pace_epochs(self) -> None:
        loop = asyncio.get_running_loop()
        interval = self.service.epoch_s / self.pace
        start = loop.time()
        paced = 0
        try:
            while not self.service.done and not self._stopping.is_set():
                paced += 1
                deadline = start + paced * interval
                await asyncio.sleep(max(0.0, deadline - loop.time()))
                if self._stopping.is_set():
                    break
                self.service.advance_epoch()
        except asyncio.CancelledError:
            pass

    async def wait_closed(self) -> None:
        """Block until a ``stop`` command (or :meth:`stop`) shuts down."""
        await self._stopping.wait()
        if self._pacer is not None:
            self._pacer.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def stop(self) -> None:
        self._stopping.set()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while not self._stopping.is_set():
                try:
                    line = await _read_line(reader)
                    if not line:
                        break
                    response = self._dispatch(json.loads(line.decode()))
                except (ArithmeticError, AttributeError, LookupError, OSError,
                        RuntimeError, TypeError, ValueError) as error:
                    response = {"ok": False,
                                "error": f"{type(error).__name__}: {error}"}
                    if isinstance(error, LineTooLong):
                        response["bye"] = True
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                if response.get("bye"):
                    break
        finally:
            writer.close()

    @spans.timed("service.dispatch")
    def _dispatch(self, command: Dict[str, Any]) -> Dict[str, Any]:
        if not isinstance(command, dict):
            raise ServiceError("a command must be a JSON object")
        service = self.service
        name = command.get("cmd")
        if name == "status":
            return {"ok": True, "status": service.status()}
        if name == "advance":
            epochs = command.get("epochs", 1)
            if isinstance(epochs, float) and epochs.is_integer():
                epochs = int(epochs)
            if isinstance(epochs, bool) or not isinstance(epochs, int):
                raise ServiceError(
                    f"epochs must be a finite integer, got {epochs!r}")
            return {"ok": True, "status": service.advance_epoch(epochs)}
        if name == "run_to_horizon":
            return {"ok": True, "status": service.run_to_horizon()}
        if name == "checkpoint":
            path = str(command["path"])
            header = service.save(path, meta=command.get("meta"))
            return {"ok": True, "header": header, "path": path}
        if name == "metrics":
            return {"ok": True, "metrics": service.metrics_dict(
                include_series=_flag(command, "include_series", True))}
        if name == "report":
            deterministic = _flag(command, "deterministic", False)
            return {"ok": True, "report": service.report().as_dict(
                deterministic=deterministic)}
        if name == "spans":
            profiler = spans.ACTIVE
            return {"ok": True, "phases": (
                profiler.phase_summary()
                if isinstance(profiler, spans.SpanProfiler) else None)}
        # A mutating command's argument goes through the parser a
        # checkpoint replays its log entry with: live and replay refuse
        # the same inputs.
        if name == "attach_workload":
            workload = _COMMANDS[name](command["workload"])
            handle = service.attach_workload(
                workload, shift_to_now=_flag(command, "shift_to_now", False))
            return {"ok": True, "handle": handle}
        if name == "detach_workload":
            return {"ok": True, **service.detach_workload(
                _COMMANDS[name](command["handle"]))}
        if name == "inject_fault":
            injected = service.inject_fault(_COMMANDS[name](command["events"]))
            return {"ok": True, "injected": injected}
        if name == "stop":
            self.stop()
            return {"ok": True, "bye": True,
                    "status": service.status()}
        return {"ok": False, "error": f"unknown command {name!r}"}


def _flag(command: Dict[str, Any], name: str, default: bool) -> bool:
    """A boolean field of a command: a JSON ``true``/``false``, or
    ``default`` when absent — anything else is refused (``"false"`` is
    truthy, and would silently read as ``True``)."""
    value = command.get(name, default)
    if not isinstance(value, bool):
        raise ServiceError(f"{name} must be true or false, got {value!r}")
    return value


async def serve_forever(service: LiveSimulationService,
                        host: str = "127.0.0.1", port: int = 0,
                        pace: float = 0.0,
                        ready_callback=None) -> None:
    """Run a :class:`ServiceServer` until a ``stop`` command arrives.

    Args:
        ready_callback: Called with the bound server once the socket is
            listening (the CLI prints the port; tests grab it).
    """
    server = ServiceServer(service, host=host, port=port, pace=pace)
    await server.start()
    if ready_callback is not None:
        ready_callback(server)
    await server.wait_closed()
