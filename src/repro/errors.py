"""Exception hierarchy for the Ariel reproduction.

All library errors derive from :class:`ArielError` so callers can catch one
base class.  The hierarchy mirrors the processing pipeline: lexing/parsing,
semantic analysis, catalog/schema management, storage, planning/execution,
and the rule system.

::

    ArielError
    ├── ParseError            lexer / parser
    ├── SemanticError         semantic analysis
    ├── CatalogError          catalog management
    ├── StorageError          heap / index storage
    ├── PlanError             query optimizer
    ├── ExecutionError        plan interpretation
    ├── RuleError             rule system
    │   ├── RuleLoopError     recognize-act cascade guard
    │   └── MemoryBudgetError negative / NaN α-memory budget
    ├── TransactionError      transaction / block misuse
    ├── DatabaseClosedError   use of a closed database handle
    ├── ServiceError          concurrent-serving layer (repro.serve)
    │   └── SessionError      unknown / closed serving session
    └── DurabilityError       write-ahead log and checkpointing
        ├── WalCorruptError   unreadable / corrupt WAL record
        └── DegradedError     database degraded to read-only mode

The durability family carries location context: :attr:`DurabilityError.path`
names the durable file involved and :attr:`DurabilityError.offset` the byte
offset of the record at fault (either may be None when not applicable), so
operators can find the damage without re-parsing the message text.
"""

from __future__ import annotations


class ArielError(Exception):
    """Base class for every error raised by the repro library."""


class ParseError(ArielError):
    """Raised by the lexer or parser on malformed command text.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    available so front ends can point at the error.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SemanticError(ArielError):
    """Raised when a syntactically valid command fails semantic analysis.

    Examples: unknown relation or attribute, type mismatch in an expression,
    ``previous`` used outside a rule condition, an aggregate where none is
    allowed.
    """


class CatalogError(ArielError):
    """Raised for catalog violations: duplicate or missing relations,
    indexes, rules or rulesets."""


class StorageError(ArielError):
    """Raised by the storage engine: dangling tuple identifiers, schema and
    tuple arity mismatches, index inconsistencies."""


class PlanError(ArielError):
    """Raised when the optimizer cannot produce a plan for a command."""


class ExecutionError(ArielError):
    """Raised while interpreting a query plan (e.g. type errors that only
    surface at run time, division by zero in an expression)."""


class RuleError(ArielError):
    """Base class for rule-system errors."""


class RuleLoopError(RuleError):
    """Raised when the recognize-act cycle exceeds the configured maximum
    number of rule firings for a single triggering transition.

    Production-rule programs can loop (a rule action re-triggering the same
    rule); Ariel bounds the cycle so a run-away rule set surfaces as an error
    instead of a hang.
    """


class MemoryBudgetError(RuleError):
    """Raised for an α-memory storage budget that is negative or NaN."""


class TransactionError(ArielError):
    """Raised for misuse of transactions or transition blocks (nested
    ``do ... end`` blocks, commit without begin, and similar)."""


class DatabaseClosedError(ArielError):
    """Raised on any use of a database after :meth:`repro.db.Database
    .close` — including a second ``close()`` — so callers get a clear
    lifecycle error instead of a failure deep inside the durability
    layer writing to a closed WAL handle."""


class ServiceError(ArielError):
    """Base class for errors of the concurrent serving layer
    (:mod:`repro.serve`): service shut down, malformed requests,
    protocol violations."""


class SessionError(ServiceError):
    """Raised when a serving request names an unknown or already-closed
    session, or a session-scoped resource (such as a prepared-statement
    name) that does not exist."""


class ServiceOverloaded(ServiceError):
    """Raised (and answered on the wire) when a request would have to
    wait for another session's transaction but the serving front end
    already holds its maximum of waiting requests."""


class DurabilityError(ArielError):
    """Base class for durability-layer failures (write-ahead logging,
    checkpointing, recovery).

    Carries the durable file's ``path`` and, when known, the byte
    ``offset`` of the record involved.
    """

    def __init__(self, message: str, path=None, offset: int | None = None):
        context = []
        if path is not None:
            context.append(f"path {path}")
        if offset is not None:
            context.append(f"offset {offset}")
        if context:
            message = f"{message} ({', '.join(context)})"
        super().__init__(message)
        self.path = None if path is None else str(path)
        self.offset = offset


class WalCorruptError(DurabilityError):
    """Raised when a write-ahead-log record cannot be trusted: a CRC
    mismatch or undecodable payload *followed by further data* (a bad
    final record is a torn tail and is silently truncated instead), or
    an unreadable generation header."""


class DegradedError(DurabilityError):
    """Raised on write attempts after the database degraded to read-only
    mode — the WAL exhausted its write retries, so accepting further
    mutations would silently break the durability guarantee.  Reads are
    still served."""
