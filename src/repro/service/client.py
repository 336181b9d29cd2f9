"""A minimal synchronous client for the service's JSON line protocol.

The protocol is deliberately simple enough for ``netcat`` — one JSON
object per line in, one per line out — and this client is the Python
convenience wrapper the CLI's ``--connect`` paths use::

    with ServiceClient("127.0.0.1", 7600) as client:
        client.command("advance", epochs=5)
        header = client.command("checkpoint", path="state.ckpt")["header"]
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(RuntimeError):
    """The server rejected a command or the connection broke."""


class ServiceClient:
    """One blocking connection to a :class:`~repro.service.server.
    ServiceServer`.

    Args:
        host: Server address.
        port: Server port.
        timeout_s: Socket timeout for connect and each response.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        try:
            self._sock = socket.create_connection((host, port),
                                                  timeout=timeout_s)
        except OSError as exc:
            raise ServiceClientError(
                f"cannot connect to {host}:{port}: {exc}") from exc
        self._stream = self._sock.makefile("rwb")

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._stream.close()
        finally:
            self._sock.close()

    def command(self, cmd: str, **fields: Any) -> Dict[str, Any]:
        """Send one command, return the server's response payload.

        Raises:
            ServiceClientError: On protocol failure or an
                ``{"ok": false}`` response (the server's error message
                is preserved).
        """
        request = {"cmd": cmd}
        request.update(fields)
        self._stream.write(json.dumps(request).encode() + b"\n")
        self._stream.flush()
        line = self._stream.readline()
        if not line:
            raise ServiceClientError(
                f"server closed the connection during {cmd!r}")
        response = json.loads(line.decode())
        if not response.get("ok"):
            raise ServiceClientError(
                response.get("error", f"command {cmd!r} failed"))
        return response

    # Convenience wrappers -------------------------------------------------

    def status(self) -> Dict[str, Any]:
        return self.command("status")["status"]

    def advance(self, epochs: int = 1) -> Dict[str, Any]:
        return self.command("advance", epochs=epochs)["status"]

    def checkpoint(self, path: str) -> Dict[str, Any]:
        return self.command("checkpoint", path=path)["header"]

    def metrics(self) -> Dict[str, Any]:
        return self.command("metrics")["metrics"]

    def report(self, deterministic: bool = False) -> Dict[str, Any]:
        return self.command("report",
                            deterministic=deterministic)["report"]

    def stop(self) -> Dict[str, Any]:
        return self.command("stop")["status"]
