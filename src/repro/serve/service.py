"""The rule-evaluation service: one engine, many sessions, one lock.

Ariel's engine is transition-at-a-time by construction: tokens are
routed and rules fire before control returns to the caller.  So
:class:`RuleService` puts no thread of its own around a
:class:`~repro.db.Database` — it is a *serializer*.  Every call, read
or write, takes the one engine lock and runs on the caller's thread
through the ordinary ``Database`` entry points.  The order in which
calls take the lock is the serial order; the mutating ones are recorded
in it (:attr:`RuleService.serial_log`), and :func:`replay_serial` on a
fresh database reproduces P-nodes, firing order and WAL bytes.  A
caller only ever sees settled transitions, because nobody else is
inside the engine while it looks.

**Transactions** are per-session and exclusive: ``begin`` makes the
session the owner until ``commit``/``abort``.  A second ``begin``, from
anyone, is *denied* at once with a
:class:`~repro.errors.TransactionError` naming the owner.  Any other
request of another session waits until the transaction ends: an
in-process caller on the lock's condition (longer than ``timeout`` is a
:class:`~repro.errors.ServiceError`); a front end that must not block
asks :meth:`RuleService.defers` first and parks the request itself
(:mod:`repro.serve.server`).  Closing the owner aborts its transaction.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import suppress

from repro.db import Database
from repro.errors import (
    ArielError, ExecutionError, ServiceError, SessionError,
    TransactionError)
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_command

#: default seconds a request waits for another session's transaction
DEFAULT_TIMEOUT = 30.0


class Session:
    """One client's handle on a :class:`RuleService`: its named
    prepared statements, whether it holds the open transaction, and
    how many requests it was served.  Every method delegates to the
    service.

    Sessions are cheap and single-client by convention: the service
    serializes every call anyway, but a session's prepared-statement
    namespace and transaction state are not meant to be shared between
    threads.
    """

    def __init__(self, service, session_id: int):
        self.service = service
        self.id = session_id
        #: client-named prepared statements (name -> Prepared)
        self.prepared: dict = {}
        self.closed = False
        #: diagnostics: plain retrieves served / everything else
        self.reads = 0
        self.writes = 0

    @property
    def in_transaction(self) -> bool:
        """This session holds the service's open transaction."""
        return self.service._txn_owner is self

    def execute(self, text: str):
        """Execute one command."""
        return self.service.execute(self, text)

    def query(self, text: str):
        """Execute a plain retrieve (anything else is rejected)."""
        return self.service.query(self, text)

    def prepare(self, name: str, text: str):
        """Prepare ``text`` under a session-scoped name; returns the
        parameter signature."""
        return self.service.prepare(self, name, text)

    def execute_prepared(self, name: str,
                         params: dict | None = None):
        """Execute a prepared statement by its session-scoped name."""
        return self.service.execute_prepared(self, name, params)

    def begin(self) -> None:
        self.service.begin(self)

    def commit(self) -> None:
        self.service.commit(self)

    def abort(self) -> None:
        self.service.abort(self)

    def close(self) -> None:
        self.service.close_session(self)

    def prepared_statement(self, name: str):
        """The session's prepared statement ``name`` (or raise)."""
        prepared = self.prepared.get(name)
        if prepared is None:
            known = ", ".join(sorted(self.prepared)) or "none"
            raise SessionError(
                f"session {self.id} has no prepared statement "
                f"{name!r} (prepared: {known})")
        return prepared


class RuleService:
    """Serve one database to many sessions, one call at a time.

    ``db`` is the database to serve (None: one is created from
    ``database_kwargs``); :meth:`shutdown` with ``close_db=True`` closes
    it either way.  ``timeout`` is how many seconds a request waits for
    another session's transaction before it becomes a
    :class:`~repro.errors.ServiceError` — stuck requests are surfaced,
    not hung.
    """

    def __init__(self, db: Database | None = None,
                 timeout: float = DEFAULT_TIMEOUT,
                 **database_kwargs):
        self.db = db if db is not None else Database(**database_kwargs)
        self.timeout = timeout
        #: the engine lock; its condition is signalled when the open
        #: transaction ends or the service stops
        self._engine = threading.Condition()
        self._sessions: dict[int, Session] = {}
        self._session_ids = itertools.count(1)
        self._txn_owner: Session | None = None
        self._waiting = 0
        self._stopped = False
        #: set by a front end that parks requests rather than waiting
        #: on the condition: called, engine lock held, whenever the
        #: open transaction ends
        self.on_transaction_end = None
        #: every mutating call in the order it ran, as replayable
        #: entries — ``("execute", text)``, ``("exec", text, values)``
        #: with the parameter values in signature order, ``("begin",)``,
        #: ``("commit",)``, ``("abort",)``; see :func:`replay_serial`
        self.serial_log: list[tuple] = []

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------

    def open_session(self) -> Session:
        """Open a new session (cheap; one dict entry)."""
        with self._engine:
            if self._stopped:
                raise ServiceError("service is shut down")
            session = Session(self, next(self._session_ids))
            self._sessions[session.id] = session
            self.db.stats.bump("serve.sessions_opened")
        return session

    def close_session(self, session: Session) -> None:
        """Close a session, aborting its open transaction if any."""
        with self._engine:
            if session.closed:
                return
            if self._txn_owner is session and not self._stopped:
                with suppress(ArielError):
                    self._write(session, ("abort",), self.db.abort)
            if self._txn_owner is session:  # stopped, or abort failed
                self._end_transaction()
            session.closed = True
            self._sessions.pop(session.id, None)
            self.db.stats.bump("serve.sessions_closed")

    def session_count(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------

    def execute(self, session: Session, text: str):
        """Execute one command for ``session``."""
        command = parse_command(text)
        if isinstance(command, ast.Retrieve) and command.into is None:
            return self.query(session, text)
        with self._engine:
            self._admit(session)
            return self._write(session, ("execute", text),
                               self.db.execute, text)

    def query(self, session: Session, text: str):
        """Execute a plain retrieve; any other command is rejected."""
        with self._engine:
            self._admit(session)
            return self._read(session, self.db.execute_readonly, text)

    def prepare(self, session: Session, name: str,
                text: str) -> tuple[str, ...]:
        """Prepare ``text`` under ``name`` in the session's namespace;
        returns the parameter signature."""
        with self._engine:
            self._admit(session)
            prepared = self._write(session, None, self.db.prepare, text)
            session.prepared[name] = prepared
        return prepared.signature

    def execute_prepared(self, session: Session, name: str,
                         params: dict | None = None):
        """Execute the session's prepared statement ``name``."""
        with self._engine:
            self._admit(session)
            prepared = session.prepared_statement(name)
            if prepared.read_only:
                return self._read(session, prepared.execute_readonly,
                                  params)
            # recorded as the statement text, by reference, and the
            # values in signature order; a call with the wrong
            # parameters is rejected here, before anything is recorded
            params = prepared.check_params(params)
            entry = ("exec", prepared.text,
                     tuple([params[n] for n in prepared.signature]))
            return self._write(session, entry, prepared.execute_with,
                               params)

    def begin(self, session: Session) -> None:
        with self._engine:
            self._require_open(session)
            owner = self._txn_owner
            if owner is not None:
                self.db.stats.bump("serve.txn_denied")
                whose = ("this session" if owner is session
                         else f"session {owner.id}")
                raise TransactionError(
                    f"transaction already open by {whose}")
            self.db.begin()
            self.serial_log.append(("begin",))
            self._txn_owner = session

    def commit(self, session: Session) -> None:
        with self._engine:
            self._admit(session)
            self._write(session, ("commit",), self.db.commit)

    def abort(self, session: Session) -> None:
        with self._engine:
            self._admit(session)
            self._write(session, ("abort",), self.db.abort)

    def defers(self, session: Session, count: bool = True) -> bool:
        """Whether ``session``'s next request has to wait for another
        session's transaction (counted as a deferred op when so, unless
        the caller asks again about a request it already counted) — the
        question a front end that must not block asks before calling
        in.  (Should a session on another thread begin in between, the
        request waits on the condition like any in-process caller.)"""
        owner = self._txn_owner
        if owner is None or owner is session:
            return False
        if count:
            with self._engine:
                self.db.stats.bump("serve.deferred_ops")
        return True

    # ------------------------------------------------------------------
    # with the engine lock held
    # ------------------------------------------------------------------

    def _require_open(self, session: Session) -> None:
        if session.closed:
            raise SessionError(f"session {session.id} is closed")
        if self._stopped:
            raise ServiceError("service is shut down")

    def _admit(self, session: Session) -> None:
        """Return once ``session`` may use the engine: at once unless
        another session's transaction is open, then when it ends."""
        self._require_open(session)
        if not self.defers(session):
            return
        deadline = time.monotonic() + self.timeout
        self._waiting += 1
        try:
            while self._txn_owner is not None and not self._stopped:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceError(
                        f"session {self._txn_owner.id}'s transaction "
                        f"did not end within {self.timeout:g}s")
                self._engine.wait(remaining)
        finally:
            self._waiting -= 1
        self._require_open(session)

    def _read(self, session: Session, run, argument):
        result = run(argument)
        session.reads += 1
        self.db.stats.bump("serve.reads")
        return result

    def _write(self, session: Session, entry: tuple | None, run, *args):
        """Count, record and run one call that is not a plain
        retrieve; if it ended the session's transaction (commit, abort,
        or a failure the engine rolled back), let the waiters in."""
        session.writes += 1
        self.db.stats.bump("serve.writes")
        if entry is not None:
            self.serial_log.append(entry)
        try:
            return run(*args)
        finally:
            if self._txn_owner is session \
                    and not self.db._in_transaction:
                self._end_transaction()

    def _end_transaction(self) -> None:
        self._txn_owner = None
        self._engine.notify_all()
        if self.on_transaction_end is not None:
            self.on_transaction_end()

    # ------------------------------------------------------------------
    # status and lifecycle
    # ------------------------------------------------------------------

    def status(self) -> dict:
        """A JSON-safe snapshot for the front end's status endpoint."""
        db = self.db
        with self._engine:
            owner = self._txn_owner
            return {
                "sessions": len(self._sessions),
                "transaction_owner": owner.id if owner else None,
                "parked": self._waiting,
                "serial_log_entries": len(self.serial_log),
                "firings": db.firings,
                "degraded": db.degraded,
                "wal": db.wal_info(),
                "stopped": self._stopped,
            }

    def serial_history(self) -> list[tuple]:
        """A copy of the order mutating calls ran in (see
        :func:`replay_serial`)."""
        return list(self.serial_log)

    def shutdown(self, close_db: bool = False) -> None:
        """Stop accepting work and fail the requests still waiting for
        a transaction; idempotent."""
        with self._engine:
            if self._stopped:
                return
            self._stopped = True
            self._engine.notify_all()
            if close_db and not self.db.closed:
                self.db.close()

    def __enter__(self) -> RuleService:
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def replay_serial(db: Database, history: list[tuple]) -> None:
    """Replay a service's :attr:`~RuleService.serial_log` on ``db``.

    This is the serial half of the concurrent-vs-serial equivalence
    property: a fresh database that replays the history must end with
    identical P-node contents, firing order and WAL bytes.  Errors of
    individual commands are swallowed exactly as the service surfaced
    them to one client without stopping the others.
    """
    prepared_cache: dict[str, object] = {}
    for entry in history:
        try:
            if entry[0] == "execute":
                db.execute(entry[1])
            elif entry[0] == "exec":
                prepared = prepared_cache.get(entry[1])
                if prepared is None:
                    prepared = db.prepare(entry[1])
                    prepared_cache[entry[1]] = prepared
                prepared.execute_with(
                    dict(zip(prepared.signature, entry[2])))
            elif entry[0] in ("begin", "commit", "abort"):
                getattr(db, entry[0])()
            else:
                raise ExecutionError(
                    f"unknown serial-log entry {entry[0]!r}")
        except ArielError:
            # the live run surfaced this to one client and carried on
            continue
