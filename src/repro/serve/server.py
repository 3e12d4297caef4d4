"""The socket front end: one event loop over a RuleService.

:meth:`RuleServer.start` starts exactly one thread, whatever the number
of connections.  It owns the listening socket and every connection in
one ``selectors`` selector, reads what has arrived into a
per-connection buffer, and for each complete line of the JSON-lines
protocol (:mod:`repro.serve.protocol`) dispatches the request into the
service and sends the reply before it looks at the next one — so the
engine runs on the thread that read the request, and dispatch order is
the service's serial order.

One TCP connection is one :class:`~repro.serve.service.Session`.
Engine errors are answered on the wire and the connection keeps
serving; a protocol error (oversized or unreadable line) is answered
and ends the connection.  The loop never blocks on a client: a
half-sent line stays in its buffer; a reply the client is not reading
is finished when the socket takes it (nothing more is read from that
connection meanwhile); a request that has to wait for another session's
transaction is *parked* — set aside in arrival order — until the
transaction ends, :attr:`RuleService.timeout` passes (answered with
``ServiceError``) or the server stops.  A dropped connection aborts its
session's open transaction on the same thread.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from collections import deque
from contextlib import suppress

from repro.errors import (
    ArielError, ServiceError, ServiceOverloaded)
from repro.serve import protocol
from repro.serve.service import RuleService

#: most requests parked behind a transaction at once (one per
#: connection at most); the next one is refused with ServiceOverloaded
MAX_PARKED = 1024

#: bytes asked of one ``recv`` — also the most pipelined requests one
#: connection can have served before the other ready ones get a turn
RECV_BYTES = 16384

#: requests that wait while another session's transaction is open
#: (``begin`` is denied at once; the rest never enter the engine)
_WAITS = frozenset(("execute", "query", "prepare", "exec", "commit",
                    "abort"))

_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class _Connection:
    """One client socket and what the loop holds for it: ``backlog`` —
    complete request lines not yet served, oldest first; ``outgoing`` —
    the part of a reply the socket has not taken yet; ``deadline`` —
    when the parked head of the backlog gives up (None: not parked);
    ``closing`` — close once ``outgoing`` is sent."""

    def __init__(self, sock: socket.socket, session):
        self.sock = sock
        self.session = session
        self.framing = protocol.LineBuffer()
        self.backlog: deque[bytes] = deque()
        self.outgoing = b""
        self.deadline: float | None = None
        self.closing = False


class RuleServer:
    """Serve a :class:`~repro.serve.service.RuleService` over TCP.

    ``port=0`` (the default) binds an ephemeral port; :meth:`start`
    returns the bound ``(host, port)``.  The server owns its service
    when it created one (``service=None`` + database kwargs), and
    :meth:`stop` shuts the service down in that case.
    """

    def __init__(self, service: RuleService | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 **database_kwargs):
        self._owns_service = service is None
        self.service = service if service is not None \
            else RuleService(**database_kwargs)
        self._host = host
        self._port = port
        self._address: tuple[str, int] | None = None
        self._thread: threading.Thread | None = None
        self._selector: selectors.BaseSelector | None = None
        self._waker: socket.socket | None = None
        self._connections: set[_Connection] = set()
        #: connections whose next request is parked, in arrival order
        self._parked: deque[_Connection] = deque()

    # ------------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, start the loop thread, and return the bound address."""
        if self._thread is not None:
            return self.address
        listener = socket.create_server((self._host, self._port))
        listener.setblocking(False)
        self._address = listener.getsockname()[:2]
        self._waker, wakee = socket.socketpair()
        self._waker.setblocking(False)
        wakee.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, _READ, None)
        self._selector.register(wakee, _READ, wakee)
        self.service.transaction_end_hooks.append(self._wake)
        self._thread = threading.Thread(
            target=self._loop, args=(listener, wakee),
            name="repro-serve-loop", daemon=True)
        self._thread.start()
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); raises before :meth:`start`."""
        if self._thread is None:
            raise RuntimeError("server is not started")
        return self._address

    def status(self) -> dict:
        """The service's status, the loop's parked requests included."""
        status = self.service.status()
        status["parked"] += len(self._parked)
        return status

    def stop(self, shutdown_service: bool | None = None,
             close_db: bool = False) -> None:
        """Stop the loop — parked requests are answered with
        ``ServiceError``, every connection's session is closed — and
        (when the server owns its service, or when forced) shut the
        service down."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._wake()
            thread.join(timeout=5)
            self.service.transaction_end_hooks.remove(self._wake)
            self._waker.close()
        if shutdown_service is None:
            shutdown_service = self._owns_service
        if shutdown_service:
            self.service.shutdown(close_db=close_db)

    def __enter__(self) -> RuleServer:
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # the loop (everything below runs on the loop thread, except _wake)
    # ------------------------------------------------------------------

    def _wake(self) -> None:
        """Make the loop look at its parked requests and at whether it
        was stopped; callable from any thread.  (Failing to send means
        closed, or full — then a wake is pending anyway.)"""
        with suppress(OSError):
            self._waker.send(b"\0")

    def _loop(self, listener: socket.socket,
              wakee: socket.socket) -> None:
        selector = self._selector
        parked = self._parked
        try:
            while self._thread is not None:     # until stop()
                timeout = None
                if parked:
                    timeout = max(
                        0.0, parked[0].deadline - time.monotonic())
                for key, events in selector.select(timeout):
                    conn = key.data
                    if conn is None:
                        self._accept(listener)
                    elif conn is wakee:
                        self._woken(wakee)
                    elif events & _WRITE:
                        self._send(conn, conn.outgoing)
                    else:
                        self._receive(conn)
                if parked:
                    self._expire_parked()
        finally:
            stopped = ServiceError("rule server stopped")
            for conn in list(self._connections):
                if conn.deadline is not None:
                    self._unpark(conn)
                    self._refuse_head(conn, stopped)
                self._close(conn)
            parked.clear()
            selector.close()
            listener.close()
            wakee.close()

    def _accept(self, listener: socket.socket) -> None:
        try:
            sock, _ = listener.accept()
        except OSError:
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            session = self.service.open_session()
        except ServiceError:
            sock.close()
            return
        conn = _Connection(sock, session)
        self._connections.add(conn)
        self._selector.register(sock, _READ, conn)

    def _close(self, conn: _Connection) -> None:
        """Drop the connection and close its session (which aborts its
        open transaction, and so wakes the loop for the parked)."""
        if conn.sock is None:
            return
        self._connections.discard(conn)
        self._selector.unregister(conn.sock)
        conn.sock.close()
        conn.sock = None
        self.service.close_session(conn.session)

    def _receive(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:                   # client hung up
            self._close(conn)
            return
        try:
            conn.backlog.extend(conn.framing.feed(chunk))
        except ValueError as exc:
            self._protocol_error(conn, exc)
            return
        self._pump(conn)

    def _pump(self, conn: _Connection) -> None:
        """Serve the backlog in order until it is empty, its head has
        to wait for a transaction, or a reply is still being sent."""
        backlog = conn.backlog
        session = conn.session
        while backlog and not conn.outgoing and conn.sock is not None:
            try:
                request = protocol.decode_message(backlog[0])
            except ValueError as exc:
                self._protocol_error(conn, exc)
                return
            op = request.get("op")
            if op in _WAITS and self.service.defers(session):
                if len(self._parked) < MAX_PARKED:
                    conn.deadline = \
                        time.monotonic() + self.service.timeout
                    self._parked.append(conn)
                    self._selector.unregister(conn.sock)
                    return
                self._refuse_head(conn, ServiceOverloaded(
                    f"{MAX_PARKED} requests are already waiting for "
                    f"a transaction to end"))
                continue
            backlog.popleft()
            if not request:             # blank keep-alive line
                continue
            response = self._dispatch(session, request)
            response["id"] = request.get("id")
            if op == "close":
                conn.closing = True
                backlog.clear()
            self._send(conn, protocol.encode_message(response))

    def _send(self, conn: _Connection, data: bytes) -> None:
        """Send ``data``; what the socket does not take now goes out
        when it turns writable, and only then is the connection read
        again (or, if ``closing``, closed)."""
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return
        if sent < len(data):
            if not conn.outgoing:
                self._selector.modify(conn.sock, _WRITE, conn)
            conn.outgoing = data[sent:]
        elif conn.closing:
            self._close(conn)
        elif conn.outgoing:
            conn.outgoing = b""
            self._selector.modify(conn.sock, _READ, conn)
            self._pump(conn)

    def _protocol_error(self, conn: _Connection,
                        exc: ValueError) -> None:
        conn.backlog.clear()
        conn.closing = True
        self._send(conn, protocol.encode_message(
            {"ok": False, "error": protocol.error_payload(exc)}))

    def _refuse_head(self, conn: _Connection,
                     exc: ServiceError) -> None:
        """Answer the request at the head of the backlog with ``exc``
        instead of serving it."""
        request = protocol.decode_message(conn.backlog.popleft())
        self._send(conn, protocol.encode_message(
            {"ok": False, "error": protocol.error_payload(exc),
             "id": request.get("id")}))

    def _unpark(self, conn: _Connection) -> None:
        conn.deadline = None
        self._selector.register(conn.sock, _READ, conn)

    def _woken(self, wakee: socket.socket) -> None:
        """A transaction ended (or stop() was called): serve what was
        parked, in arrival order; a request that has to wait again
        parks again, still behind what arrived before it."""
        with suppress(OSError):
            wakee.recv(4096)
        if self._thread is not None:
            for _ in range(len(self._parked)):
                conn = self._parked.popleft()
                self._unpark(conn)
                self._pump(conn)

    def _expire_parked(self) -> None:
        parked = self._parked
        now = time.monotonic()
        while parked and parked[0].deadline <= now:
            conn = parked.popleft()
            self._unpark(conn)
            self._refuse_head(conn, ServiceError(
                f"another session's transaction did not end within "
                f"{self.service.timeout:g}s"))
            self._pump(conn)

    def _dispatch(self, session, request: dict) -> dict:
        try:
            return {"ok": True, "result": self._serve(session, request)}
        except Exception as exc:
            if not isinstance(exc, (ArielError, ValueError, TypeError)):
                # an engine bug: answer it too — unhandled, it would
                # end the loop and with it every connection
                logging.getLogger(__name__).exception(
                    "request %r failed", request.get("op"))
            return {"ok": False, "error": protocol.error_payload(exc)}

    def _serve(self, session, request: dict) -> dict:
        op = request.get("op")
        if op == "exec":
            return protocol.encode_result(session.execute_prepared(
                self._field(request, "name"),
                request.get("params") or {}))
        if op == "execute":
            return protocol.encode_result(
                session.execute(self._field(request, "text")))
        if op == "query":
            return protocol.encode_result(
                session.query(self._field(request, "text")))
        if op == "prepare":
            signature = session.prepare(self._field(request, "name"),
                                        self._field(request, "text"))
            return {"type": "prepared", "signature": list(signature)}
        if op in ("begin", "commit", "abort"):
            getattr(session, op)()
            return {"type": "ok"}
        if op == "ping":
            return {"type": "pong"}
        if op == "session":
            return {"type": "session", "session": session.id}
        if op == "status":
            return {"type": "status", "status": self.status()}
        if op == "close":
            return {"type": "ok"}
        raise ValueError(
            f"unknown op {op!r}; expected one of {list(protocol.OPS)}")

    @staticmethod
    def _field(request: dict, name: str) -> str:
        value = request.get(name)
        if not isinstance(value, str) or not value:
            raise ValueError(f"request is missing the {name!r} field")
        return value
