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
session's open transaction on the same thread.  Whatever one
connection's bytes make the loop raise ends that connection only.
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

_log = logging.getLogger(__name__)


class _Connection:
    """One client socket and what the loop holds for it: ``backlog`` —
    complete request lines not yet served, oldest first; ``outgoing`` —
    the part of a reply the socket has not taken yet; ``deadline`` —
    when the head of the backlog, parked now or re-parked since, gives
    up waiting (None: it has not had to wait); ``closing`` — close once
    ``outgoing`` is sent."""

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
        self.service.on_transaction_end = self._transaction_ended
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
            self.service.on_transaction_end = None
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
        """Make the loop go round once more; callable from any thread.
        (Failing to send means closed, or full — then a wake is pending
        anyway.)"""
        with suppress(OSError):
            self._waker.send(b"\0")

    def _transaction_ended(self) -> None:
        """The service's ``on_transaction_end``.  The loop looks at its
        parked requests each time round, so only a transaction ended by
        a session on another thread has to wake it."""
        if self._parked \
                and threading.current_thread() is not self._thread:
            self._wake()

    def _loop(self, listener: socket.socket,
              wakee: socket.socket) -> None:
        selector = self._selector
        parked = self._parked
        defers = self.service.defers
        try:
            while self._thread is not None:     # until stop()
                timeout = None
                if parked:
                    if not defers(parked[0].session, count=False):
                        self._serve_parked()
                    self._expire_parked()
                    if parked:
                        timeout = max(
                            0.0, parked[0].deadline - time.monotonic())
                for key, events in selector.select(timeout):
                    conn = key.data
                    if conn is None:
                        self._accept(listener)
                    elif conn is wakee:
                        with suppress(OSError):
                            wakee.recv(4096)
                    elif events & _WRITE:
                        self._step(conn, self._send, conn.outgoing)
                    else:
                        self._step(conn, self._receive)
        finally:
            stopped = ServiceError("rule server stopped")
            while parked:
                self._step(self._unpark(), self._refuse_head, stopped)
            for conn in list(self._connections):
                self._close(conn)
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

    def _step(self, conn: _Connection, step, *args) -> None:
        """Run one connection's ``step``; a failure nobody foresaw ends
        that connection, not the loop and everybody else's."""
        try:
            step(conn, *args)
        except Exception:
            _log.exception("connection of session %d failed",
                           conn.session.id)
            self._close(conn)

    def _close(self, conn: _Connection) -> None:
        """Drop the connection and close its session (which aborts its
        open transaction; the loop then serves the parked)."""
        sock, conn.sock = conn.sock, None
        if sock is None:
            return
        self._connections.discard(conn)
        with suppress(KeyError, ValueError):    # if that is what failed
            self._selector.unregister(sock)
        sock.close()
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
            waited = conn.deadline is not None
            if isinstance(op, str) and op in _WAITS \
                    and self.service.defers(session, count=not waited):
                if len(self._parked) < MAX_PARKED:
                    if not waited:
                        conn.deadline = \
                            time.monotonic() + self.service.timeout
                    self._selector.unregister(conn.sock)
                    self._parked.append(conn)
                    return
                self._refuse_head(conn, ServiceOverloaded(
                    f"{MAX_PARKED} requests are already waiting for "
                    f"a transaction to end"))
                continue
            backlog.popleft()
            conn.deadline = None
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
        conn.deadline = None
        self._send(conn, protocol.encode_message(
            {"ok": False, "error": protocol.error_payload(exc),
             "id": request.get("id")}))

    def _unpark(self) -> _Connection:
        """The longest-parked connection, read from again."""
        conn = self._parked.popleft()
        self._selector.register(conn.sock, _READ, conn)
        return conn

    def _serve_parked(self) -> None:
        """The transaction ended: serve what was parked, in arrival
        order; a request that has to wait again (one served before it
        began a transaction) parks again, still behind what arrived
        before it and with the deadline it had."""
        for _ in range(len(self._parked)):
            self._step(self._unpark(), self._pump)

    def _expire_parked(self) -> None:
        parked = self._parked
        now = time.monotonic()
        while parked and parked[0].deadline <= now:
            conn = self._unpark()
            self._step(conn, self._refuse_head, ServiceError(
                f"another session's transaction did not end within "
                f"{self.service.timeout:g}s"))
            self._step(conn, self._pump)

    def _dispatch(self, session, request: dict) -> dict:
        try:
            return {"ok": True, "result": self._serve(session, request)}
        except Exception as exc:
            if not isinstance(exc, (ArielError, ValueError, TypeError)):
                # an engine bug: answer it too — unhandled, it would
                # end the loop and with it every connection
                _log.exception("request %r failed", request.get("op"))
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
