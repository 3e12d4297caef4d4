"""A blocking client for the rule-evaluation front end.

:class:`ServiceClient` speaks the JSON-lines protocol of
:mod:`repro.serve.protocol` over one TCP connection (= one server
session).  Engine errors surface as :class:`RemoteError`, which
carries the server-side exception class name so callers can
distinguish a :class:`~repro.errors.TransactionError` denial from an
:class:`~repro.errors.ExecutionError` without parsing messages.

.. code-block:: python

    with ServiceClient(host, port) as client:
        client.execute('append emp(name = "a", sal = 1.0)')
        client.prepare("by_sal", "retrieve (e.name) from e in emp "
                                 "where e.sal > $floor")
        rows = client.exec_prepared("by_sal", {"floor": 0.5})["rows"]
"""

from __future__ import annotations

import itertools
import socket

from repro.errors import ServiceError
from repro.serve import protocol


class RemoteError(ServiceError):
    """A server-side error relayed over the wire.

    :attr:`kind` is the original exception class name (for example
    ``"TransactionError"``); the message is the original message.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class ServiceClient:
    """One connection (= one server session) to a RuleServer."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._socket = socket.create_connection((host, port),
                                                timeout=timeout)
        self._socket.setsockopt(socket.IPPROTO_TCP,
                                socket.TCP_NODELAY, 1)
        self._reader = self._socket.makefile("rb")
        self._writer = self._socket.makefile("wb")
        self._request_ids = itertools.count(1)
        self.closed = False

    # ------------------------------------------------------------------

    def _call(self, op: str, **fields) -> dict:
        if self.closed:
            raise ServiceError("client is closed")
        request = {"id": next(self._request_ids), "op": op, **fields}
        try:
            self._writer.write(protocol.encode_message(request))
            self._writer.flush()
            response = protocol.read_message(self._reader)
        except (OSError, ValueError) as exc:
            self.close()
            raise ServiceError(
                f"connection to rule server lost: {exc}") from exc
        if response is None:
            self.close()
            raise ServiceError("rule server closed the connection")
        if not response.get("ok"):
            error = response.get("error") or {}
            raise RemoteError(error.get("kind", "ServiceError"),
                              error.get("message", "unknown error"))
        return response.get("result") or {}

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        return self._call("ping").get("type") == "pong"

    def session_id(self) -> int:
        return self._call("session")["session"]

    def execute(self, text: str) -> dict:
        """Execute one command; returns the protocol result dict
        (``{"type": "rows"|"dml"|"text"|"ok", ...}``)."""
        return self._call("execute", text=text)

    def query(self, text: str) -> dict:
        """Execute a retrieve on the server's read path."""
        return self._call("query", text=text)

    def rows(self, text: str) -> list[list]:
        """The rows of a retrieve (convenience over :meth:`query`)."""
        return self.query(text)["rows"]

    def prepare(self, name: str, text: str) -> list[str]:
        """Prepare ``text`` under ``name``; returns the parameter
        signature."""
        return self._call("prepare", name=name, text=text)["signature"]

    def exec_prepared(self, name: str,
                      params: dict | None = None) -> dict:
        """Execute a prepared statement by name."""
        return self._call("exec", name=name, params=params or {})

    def begin(self) -> None:
        self._call("begin")

    def commit(self) -> None:
        self._call("commit")

    def abort(self) -> None:
        self._call("abort")

    def status(self) -> dict:
        return self._call("status")["status"]

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the connection (ending the server-side session);
        idempotent."""
        if self.closed:
            return
        self.closed = True
        for stream in (self._writer, self._reader, self._socket):
            try:
                stream.close()
            except OSError:
                pass

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
