"""repro — a reproduction of the Ariel active DBMS rule system.

Implements Hanson, *Rule Condition Testing and Action Execution in
Ariel*, SIGMOD 1992: a relational DBMS with a POSTQUEL-subset query
language, the Ariel Rule Language (pattern + event + transition
conditions), the A-TREAT discrimination network with virtual α-memories,
an interval-skip-list selection predicate index, and rule action
execution by query modification through the ordinary query optimizer.

Entry point::

    from repro import Database
    db = Database()                 # TREAT; A-TREAT under a §8 memory budget
    db.execute('create emp (name = text, sal = float8)')
"""

from repro.db import Database
from repro.errors import (
    ArielError, CatalogError, DatabaseClosedError, DegradedError,
    DurabilityError, ExecutionError, ParseError, PlanError, RuleError,
    RuleLoopError, SemanticError, ServiceError, ServiceOverloaded,
    SessionError, StorageError, TransactionError, WalCorruptError)
from repro.faults import FaultRegistry, SimulatedCrash
from repro.observe import EngineStats, TraceHub

__version__ = "1.0.0"

__all__ = [
    "Database", "EngineStats", "TraceHub",
    "FaultRegistry", "SimulatedCrash",
    "ArielError", "CatalogError", "DatabaseClosedError",
    "DegradedError", "DurabilityError", "ExecutionError", "ParseError",
    "PlanError", "RuleError", "RuleLoopError", "SemanticError",
    "ServiceError", "ServiceOverloaded", "SessionError",
    "StorageError", "TransactionError", "WalCorruptError",
    "__version__",
]
