"""The Ariel database facade: parse → analyze → plan → execute → rules.

:class:`Database` wires the whole system together the way the paper's
Figure 2 draws it: commands enter through the lexer/parser and semantic
analyzer; data commands are planned by the query optimizer and run by the
executor, whose mutations flow through transition hooks into the Δ-sets
and the discrimination network; after each transition the recognize-act
cycle (Figure 1) fires eligible rules, each firing planning its action
with the rule action planner and executing it as a transition of its own.

Typical use::

    db = Database()
    db.execute('create emp (name = text, sal = float8)')
    db.execute('define rule NoBobs on append emp '
               'if emp.name = "Bob" then delete emp')
    db.execute('append emp(name = "Bob", sal = 1.0)')   # rule fires
    db.query('retrieve (emp.name)').rows                # -> []
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import partial
from typing import NamedTuple

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.core.deltasets import DeltaSets
from repro.core.subscriptions import Subscriber, SubscriptionHub
from repro.core.manager import RuleManager
from repro.core.rete import ReteNetwork
from repro.core.rules import CompiledRule
from repro.core.treat import TreatNetwork
from repro.errors import (
    ArielError, DatabaseClosedError, DegradedError, DurabilityError,
    ExecutionError, TransactionError, WalCorruptError)
from repro.executor.executor import (
    DmlResult, ExecutionContext, Executor, ResultSet)
from repro.faults import FaultRegistry, SimulatedCrash
from repro.lang import ast_nodes as ast
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_command, parse_script
from repro.lang.semantic import SemanticAnalyzer
from repro.observe import EngineStats, TraceHub
from repro.planner.optimizer import Optimizer, PlannedCommand
from repro.planner.plans import PNODE, explain as explain_plan, instrument
from repro.prepared import (
    Prepared, StatementCache, is_cacheable, shape_of)
from repro.txn.durability import DurabilityManager
from repro.txn.transitions import TransitionHooks
from repro.txn.undo import UndoLog
from repro.txn.wal import decode_values

#: one class for both names: the storage budget decides what is virtual
_NETWORKS = {
    "a-treat": TreatNetwork,
    "treat": TreatNetwork,
    "rete": ReteNetwork,
}


def _values_equal(a: tuple, b: tuple) -> bool:
    """Tuple equality treating NaN as equal to itself, so WAL replay
    can locate any stored row by value."""
    return len(a) == len(b) and all(
        x == y or (x != x and y != y) for x, y in zip(a, b))


def _read_only_command(command: ast.Command) -> bool:
    """Commands a degraded (read-only) database may still serve."""
    if isinstance(command, ast.Retrieve):
        return command.into is None
    if isinstance(command, ast.Explain):
        return (not command.analyze) \
            or _read_only_command(command.command)
    return False


#: ``Database.firing_log`` keeps the most recent firings only: when it
#: reaches twice this many records the oldest are dropped, so trimming
#: is amortised O(1) and the log stays a plain list
FIRING_LOG_KEEP = 1024


class FiringRecord(NamedTuple):
    """One entry of the rule-firing trace (``Database.firing_log``)."""

    sequence: int
    rule_name: str
    priority: float
    match_count: int

    def __str__(self) -> str:
        return (f"#{self.sequence} {self.rule_name} "
                f"(priority {self.priority}, {self.match_count} "
                f"match(es))")


#: ``_new_record((sequence, rule, priority, matches))`` is
#: ``FiringRecord(...)`` without the named tuple's Python constructor
_new_record = partial(tuple.__new__, FiringRecord)


class Database:
    """A single-user Ariel database instance.

    Parameters
    ----------
    network:
        ``"a-treat"`` (default; alias ``"treat"``) or ``"rete"``.  Every
        α-memory is stored until :func:`~repro.core.memory_optimizer
        .optimize_memories` sets a storage budget (paper §8); what it
        does not pay for is virtual (A-TREAT, paper §4.2).  Rete stays
        all-stored: a finite budget on it raises MemoryBudgetError.
    max_firings:
        Bound on rule firings per triggering transition; exceeding it
        raises :class:`~repro.errors.RuleLoopError`.
    batch_tokens:
        Only ``False``: tokens route when their statement makes them,
        each statement's Δ-set as one batch; any other value raises
        ArielError.
    statement_cache_size:
        Capacity of the transparent LRU plan cache inside
        :meth:`execute` (0 disables it).  Explicitly prepared statements
        (:meth:`prepare`) are unaffected by this bound.
    join_mode:
        Only ``"pairwise"``, the one join algorithm (TREAT's pairwise
        seek, Rete's β chain); any other value raises ArielError.
    durable_path:
        Directory for durable state (a checkpoint script plus a
        write-ahead log of committed transitions).  Starts *fresh*: an
        existing durable state there is refused — reopen one with
        :meth:`Database.recover` instead.  None (the default) keeps the
        database purely in memory.
    fsync:
        WAL fsync policy: ``"always"`` (every record), ``"commit"``
        (every durable boundary; the default) or ``"never"`` (flush
        only).  Ignored without ``durable_path``.
    checkpoint_every:
        Auto-checkpoint once the WAL holds this many records (0
        disables automatic checkpoints; :meth:`checkpoint` still
        works).  Ignored without ``durable_path``.
    """

    def __init__(self, network: str = "a-treat",
                 max_firings: int = 1000,
                 batch_tokens: bool = False,
                 statement_cache_size: int = 128,
                 join_mode: str = "pairwise",
                 durable_path=None,
                 fsync: str = "commit",
                 checkpoint_every: int = 1000):
        try:
            network_cls = _NETWORKS[network.lower()]
        except KeyError:
            raise ArielError(
                f"unknown network {network!r}; expected one of "
                f"{sorted(_NETWORKS)}") from None
        # Accepted only because the benchmark harness's REFERENCE_CONFIG
        # still passes join_mode="pairwise" and batch_tokens=False; both
        # parameters go once the harness drops those keys.
        if join_mode != "pairwise":
            raise ArielError(f"unknown join mode {join_mode!r}; "
                             f"the only join mode is 'pairwise'")
        if batch_tokens is not False:
            raise ArielError(f"batch_tokens={batch_tokens!r}: tokens "
                             f"always route per statement (only False)")
        #: engine counter registry (see :mod:`repro.observe`); set
        #: ``stats.enabled = False`` to make every bump a no-op
        self.stats = EngineStats()
        #: trace-hook hub for engine events; see :meth:`on_event`
        self.trace = TraceHub()
        self.catalog = Catalog()
        self.analyzer = SemanticAnalyzer(self.catalog)
        self.optimizer = Optimizer(self.catalog)
        self.manager = RuleManager(
            self.catalog, self.optimizer, network_cls,
            max_rule_cascade=max_firings, stats=self.stats)
        self.deltasets = DeltaSets()
        self.undo = UndoLog()
        self.hooks = TransitionHooks(self.catalog, self.deltasets,
                                     self.manager.process_tokens, self.undo)
        self.hooks.stats = self.stats
        self.hooks.trace = self.trace
        self.hooks.network = self.manager.network
        self.context = ExecutionContext(self.catalog, self.hooks)
        self.executor = Executor(self.context)
        self.action_planner = self.manager.action_planner
        #: rule firings since construction (diagnostics)
        self.firings = 0
        #: trace of the most recent firings (at least the last
        #: :data:`FIRING_LOG_KEEP`), newest last (clear with
        #: ``firing_log.clear()``)
        self.firing_log: list[FiringRecord] = []
        #: the delivery queue of asynchronous trigger delivery to
        #: applications (paper §8 future work); see :meth:`subscribe`
        self.subscriptions = SubscriptionHub()
        #: transparent LRU of plans for repeated ad-hoc DML text
        self.statement_cache = StatementCache(statement_cache_size,
                                              stats=self.stats)
        #: deterministic fault points for durability testing (see
        #: :mod:`repro.faults`); tests arm them, production never does
        self.faults = FaultRegistry(stats=self.stats)
        self._cycle_running = False
        self._rules_suspended = False
        self._closed = False
        self._in_transaction = False
        self._implicit_scope = False
        self._pnode_snapshots = None
        self._durability: DurabilityManager | None = None
        if durable_path is not None:
            self._durability = DurabilityManager(
                self, durable_path, fsync=fsync,
                checkpoint_every=checkpoint_every, mode="fresh")
            self.hooks.journal = self._durability

    @property
    def max_firings(self) -> int:
        """Bound on rule firings per transition (delegates to the
        manager's cascade guard)."""
        return self.manager.max_rule_cascade

    @max_firings.setter
    def max_firings(self, value: int) -> None:
        self.manager.max_rule_cascade = value

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    @classmethod
    def recover(cls, durable_path, *, fsync: str = "commit",
                checkpoint_every: int = 1000, **database_kwargs
                ) -> Database:
        """Reopen a durable database from its directory.

        Loads the checkpoint script with rules suspended (the one load
        sequence :func:`repro.persist.loads` runs), then replays the WAL
        suffix — still suspended, because the log already contains every
        rule-generated mutation, so re-firing would double them.  Token
        routing during replay re-primes the α-memories and P-nodes;
        the final state equals a fresh database that executed only the
        durably-committed prefix of history.  The storage budget is not
        checkpointed: every α-memory comes back stored.
        """
        db = cls(**database_kwargs)
        manager = DurabilityManager(
            db, durable_path, fsync=fsync,
            checkpoint_every=checkpoint_every, mode="recover")
        try:
            db._load_settled(manager.pending_script,
                             manager.pending_replay)
        finally:
            manager.pending_script = None
            manager.pending_replay = []
        db._durability = manager
        db.hooks.journal = manager
        manager.maybe_checkpoint()
        return db

    def checkpoint(self) -> None:
        """Force a checkpoint: dump the database, atomically swap it in
        and truncate the WAL.  Requires ``durable_path``."""
        self._require_open()
        if self._durability is None:
            raise DurabilityError("database has no durable path")
        if self._in_transaction:
            raise TransactionError(
                "cannot checkpoint inside an open transaction")
        self._require_writable("checkpoint")
        self._durability.flush_boundary(sync=True)
        self._durability.checkpoint()

    def close(self) -> None:
        """Flush and close the durable state (no-op when in-memory).

        The handle is unusable afterwards: executing commands — or
        closing again — raises :class:`~repro.errors
        .DatabaseClosedError` instead of failing deep inside the
        durability layer on a closed WAL handle.  Pure introspection
        (``relation_rows``, stats, the network) stays readable.
        """
        self._require_open()
        self._closed = True
        d = self._durability
        if d is not None:
            if not d.crashed and d.degraded is None:
                d.flush_boundary(sync=True)
            d.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise DatabaseClosedError("database is closed")

    @property
    def degraded(self) -> str | None:
        """Why the database is read-only (None while healthy)."""
        return self._durability.degraded if self._durability else None

    def wal_info(self) -> dict | None:
        """Durability status (None for an in-memory database)."""
        d = self._durability
        if d is None:
            return None
        return {
            "path": str(d.dir),
            "fsync": d.fsync,
            "generation": d.wal.generation,
            "records": d.wal.data_records,
            "pending": d.pending_records,
            "checkpoint_every": d.checkpoint_every,
            "degraded": d.degraded,
        }

    def _load_settled(self, script: str, records: list) -> None:
        """The one load sequence, of :func:`repro.persist.loads` (no
        records) and :meth:`recover` (checkpoint + WAL): run the script
        and replay the records with rule firing suspended, then settle —
        restored data is already processed, so the P-nodes its
        activation primed, the agenda and the dynamic memories are
        cleared."""
        self._rules_suspended = True
        try:
            if script.strip():
                self.execute_script(script)
            for record in records:
                self._replay_wal_record(record)
                self.stats.bump("recovery.replayed")
            for name in self.manager.active_rules():
                self.network.pnode(name).clear()
            self.manager.agenda.clear()
            self.network.flush_dynamic()
        finally:
            self._rules_suspended = False

    def _replay_wal_record(self, record: list) -> None:
        """Re-apply one logged transition through the hooks (no rule
        firing; tokens still route, keeping the network in step)."""
        for entry in record:
            kind = entry[0]
            if kind == "stmt":
                self._dispatch(self.analyzer.analyze(
                    parse_command(entry[1])))
            elif kind == "i":
                self.hooks.insert(entry[1], decode_values(entry[2]))
            elif kind == "d":
                values = decode_values(entry[2])
                self.hooks.delete(entry[1],
                                  self._locate_tuple(entry[1], values))
            elif kind == "r":
                before = decode_values(entry[2])
                self.hooks.replace(entry[1],
                                   self._locate_tuple(entry[1], before),
                                   decode_values(entry[3]))
            else:
                raise WalCorruptError(
                    f"unknown WAL entry kind {kind!r}")
        self.deltasets.clear()
        self.manager.end_of_rule_processing()

    def _locate_tuple(self, relation_name: str, values: tuple):
        """The TID currently holding ``values`` — replay targets tuples
        by value because TIDs are not stable across checkpoint reload."""
        for stored in self.catalog.relation(relation_name).scan():
            if _values_equal(stored.values, values):
                return stored.tid
        raise WalCorruptError(
            f"replayed mutation found no tuple {values!r} in "
            f"{relation_name}")

    def _require_writable(self, what: str) -> None:
        d = self._durability
        if d is not None and d.degraded is not None:
            raise DegradedError(
                f"cannot {what}: database is read-only "
                f"({d.degraded})", path=d.wal_path)

    def _journal_statement(self, command: ast.Command) -> None:
        d = self._durability
        if d is not None and not d.crashed:
            d.journal_statement(ast.deparse(command),
                                sync=not self._in_transaction)

    def _durable_boundary(self) -> None:
        """Flush the journaled transition at a successful implicit
        boundary, then maybe checkpoint."""
        d = self._durability
        if d is None or d.crashed:
            return
        try:
            d.flush_boundary(sync=True)
            if not self._in_transaction:
                d.maybe_checkpoint()
        except SimulatedCrash:
            d.mark_crashed()
            raise

    def _durable_settle(self, exc: BaseException) -> None:
        """Durability bookkeeping for a failed implicit transition: a
        simulated crash loses the in-flight record; any other error
        still flushes, because the heap kept the completed effects."""
        d = self._durability
        if d is None or d.crashed:
            return
        if isinstance(exc, SimulatedCrash):
            d.mark_crashed()
            return
        try:
            d.flush_boundary(sync=True)
        except SimulatedCrash:
            d.mark_crashed()
        except DurabilityError:
            # degraded mode is already recorded; surfacing it here
            # would mask the error that broke the transition
            pass

    # ------------------------------------------------------------------
    # command execution
    # ------------------------------------------------------------------

    def execute(self, text: str):
        """Parse, analyze and execute one command; returns its result
        (a ResultSet for retrieve, a DmlResult for updates, else None).

        Plain DML goes through a transparent statement cache keyed by
        the statement's shape: texts that differ only in their number
        and string literals share one plan (the literals are its
        parameters), re-planned when DDL has changed the catalog since.
        """
        self._require_open()
        prepared, params, source = self._statement(text)
        if prepared is not None:
            return prepared.execute_with(params)
        command = self.analyzer.analyze(parse_command(source))
        if is_cacheable(command) and self.statement_cache.capacity > 0:
            # DML the cache does not serve ($ placeholders): prepared only
            return Prepared(self, text, command=command).execute_with(None)
        return self._dispatch(command)

    def _statement(self, text: str):
        """``(prepared, params, source)``: the statement-cache entry
        serving ``text`` (built on a miss; None if the cache does not
        serve it), the text's literals as its parameter vector, and
        what to hand ``parse_command`` (the text's tokens; the text
        itself when the cache is off: nothing is scanned here)."""
        cache = self.statement_cache
        if cache.capacity <= 0:
            return None, None, text
        tokens = tokenize(text)
        shape = shape_of(tokens)
        if shape is None:
            return None, None, tokens
        key, literals = shape
        prepared = cache.lookup(key)
        if prepared is None:
            prepared = Prepared(self, text, tokens=tokens)
            cache.store(key, prepared)
        return prepared, dict(zip(prepared.signature, literals)), tokens

    def prepare(self, text: str) -> Prepared:
        """Prepare one DML command: parse, analyze and plan it now, and
        execute it repeatedly later with per-execution parameters::

            p = db.prepare('retrieve (e.name) from e in emp '
                           'where e.id = $id')
            p.execute(id=7)
        """
        self._require_open()
        return Prepared(self, text)

    def execute_many(self, text: str, rows) -> list:
        """Prepare ``text`` once and execute it with every parameter
        vector in ``rows`` (an iterable of name -> value dicts); returns
        the per-execution results."""
        prepared = self.prepare(text)
        return [prepared.execute_with(row) for row in rows]

    def execute_script(self, text: str) -> list:
        """Execute a sequence of commands; returns their results."""
        self._require_open()
        results = []
        for command in parse_script(text):
            self.analyzer.analyze(command)
            results.append(self._dispatch(command))
        return results

    def query(self, text: str) -> ResultSet:
        """Execute a retrieve and return its ResultSet."""
        result = self.execute(text)
        if not isinstance(result, ResultSet):
            raise ExecutionError("query() expects a retrieve command")
        return result

    def execute_readonly(self, text: str) -> ResultSet:
        """Execute a plain retrieve *without* entering the transition
        machinery (no recovery scope, no token flush, no recognize-act
        cycle — none of which a retrieve needs).

        This is the serving layer's read path; the service's engine
        lock guarantees it runs between transitions.  Plans come from
        (and land in) the same statement cache as :meth:`execute`.
        Anything but a plain retrieve is rejected.
        """
        self._require_open()
        prepared, params, source = self._statement(text)
        if prepared is None:
            command = self.analyzer.analyze(parse_command(source))
            if isinstance(command, ast.Retrieve) and command.into is None:
                prepared = Prepared(self, text, command=command)
        if prepared is None or not prepared.read_only:
            raise ExecutionError(
                "execute_readonly serves plain retrieve commands "
                "only; route mutations through execute()")
        return prepared.execute_readonly(params)

    def explain(self, text: str, analyze: bool = False) -> str:
        """The physical plan the optimizer picks for a data command.

        With ``analyze=True`` (or when ``text`` itself reads ``explain
        analyze <command>``) the command is *executed* — including any
        rule cascade it triggers — and every plan operator is annotated
        with its observed row counts, loop count and wall time.

        Cacheable commands route through the same statement cache as
        :meth:`execute`, so the output always reflects what a cached
        execution would actually run — after DDL, the version check
        re-plans and explain shows the new access path.  Analyzed runs
        never enter the statement cache: instrumentation wrappers must
        not leak into ordinary executions.
        """
        self._require_open()
        source = text
        if not analyze:
            prepared, params, source = self._statement(text)
            if prepared is not None:
                return prepared.explain(params)
        command = self.analyzer.analyze(parse_command(source))
        if isinstance(command, ast.Explain):
            return self._run_explain(command)
        if analyze:
            return self._explain_analyze(command)
        return explain_plan(self.optimizer.plan_command(command).plan)

    def _run_explain(self, command: ast.Explain):
        """Dispatch target for a parsed ``explain [analyze]`` command."""
        if command.analyze:
            return self._explain_analyze(command.command)
        planned = self.optimizer.plan_command(command.command)
        return explain_plan(planned.plan)

    def _explain_analyze(self, command: ast.Command) -> str:
        """Execute ``command`` with an instrumented plan and render the
        annotated operator tree (rows in/out, loops, per-node time).

        The command really runs — heap mutations, token routing and any
        triggered rule cascade included — inside the usual undo-backed
        recovery scope.  The instrumented plan is built fresh and never
        stored, so caches keep serving unwrapped plans.
        """
        planned = self.optimizer.plan_command(command)
        root = instrument(planned.plan)
        analyzed = PlannedCommand(planned.command, root, planned.scope)
        start = time.perf_counter()
        with self._recovery_scope():
            result = self.executor.run(analyzed)
            self._note_plan_executed(analyzed)
            self.deltasets.clear()
            self._run_rule_cycle()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if isinstance(result, ResultSet):
            summary = f"{len(result)} row(s)"
        elif isinstance(result, DmlResult):
            summary = f"{result.count} tuple(s) affected"
        else:
            summary = "ok"
        return (f"{explain_plan(root)}\n"
                f"Total: {summary} in {elapsed_ms:.3f} ms")

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Open a transaction: subsequent commands can be aborted."""
        self._require_open()
        if self._in_transaction:
            raise TransactionError("transaction already open")
        self._require_writable("begin a transaction")
        self._in_transaction = True
        # Undo-replay restores α-memories exactly, but P-nodes are not
        # symmetric under it: a match consumed by a pre-transaction
        # firing is gone from the P-node, so a delete inside the
        # transaction removes nothing there — yet the abort's restore
        # would re-insert it.  Snapshot P-node contents now and put them
        # back verbatim on abort.
        self._pnode_snapshots = {
            name: self.network.pnode(name).snapshot()
            for name in self.network.rules}
        self.undo.begin()

    def commit(self) -> None:
        """Close the open transaction, keeping its effects.

        For a durable database the transaction's journaled mutations
        hit the WAL here, as one record at a sync boundary — nothing of
        an uncommitted transaction ever reaches the log.
        """
        self._require_open()
        if not self._in_transaction:
            raise TransactionError("no open transaction")
        d = self._durability
        if d is not None and not d.crashed:
            try:
                self.faults.hit("txn.commit")
            except SimulatedCrash:
                d.mark_crashed()
                raise
        self._in_transaction = False
        self._pnode_snapshots = None
        self.undo.commit()
        self._durable_boundary()

    def abort(self) -> None:
        """Undo every mutation of the open transaction.

        The inverses replay through the transition hooks, so α-memories
        and P-nodes stay consistent; rule firing is suppressed while the
        undo runs, and dynamic state is flushed afterwards.
        """
        self._require_open()
        if not self._in_transaction:
            raise TransactionError("no open transaction")
        self._in_transaction = False
        self._rules_suspended = True
        try:
            self._replay_undo()
            self.deltasets.clear()
            self.manager.end_of_rule_processing()
            self.manager.agenda.clear()
            # Rules defined during the transaction (not transactional,
            # hence absent from the snapshot) keep their replayed state.
            # A rule with a dynamic variable keeps the empty P-node the
            # flush left: it holds nothing at a transition boundary.
            for name, snap in self._pnode_snapshots.items():
                rule = self.network.rules.get(name)
                if rule is not None and not rule.has_dynamic_variable:
                    self.network.pnode(name).restore(snap)
            self._pnode_snapshots = None
        finally:
            self._rules_suspended = False
        # The journal buffered the transaction's mutations *and* their
        # undo compensations (both flowed through the hooks), so the
        # flushed record replays to the heap the abort left behind —
        # including non-transactional side effects like DDL that forced
        # a mid-transaction flush.
        self._durable_boundary()

    def _replay_undo(self) -> None:
        """Replay the undo log's inverses through the transition hooks,
        so the discrimination network tracks the heap exactly."""
        for record in self.undo.take_reversed():
            if record.op == "insert":
                self.hooks.delete(record.relation, record.tid)
            elif record.op == "delete":
                self.hooks.restore(record.relation, record.tid,
                                   record.before)
            else:
                self.hooks.replace(record.relation, record.tid,
                                   record.before)

    @contextmanager
    def _recovery_scope(self):
        """Consistency recovery around one implicit (auto-commit)
        transition.

        An exception raised mid-transition — a failing command, a
        failing rule action, or the cascade guard tripping — must not
        leave the α-memories and P-nodes inconsistent with the heap.
        Completed effects persist (transitions are not atomic outside
        explicit transactions — the triggering tuple of a failed rule
        action stays inserted), so recovery here means *settling*:
        every token was routed by its statement, so the network is in
        step with the heap and only per-transition state is cleared.
        The failing action's own partial effects are rolled back by the
        per-firing undo scope in :meth:`_fire` before this scope ever
        sees the exception.  Inside an explicit transaction the caller owns
        recovery via :meth:`abort` instead.
        """
        if self._in_transaction or self._implicit_scope:
            yield
            return
        self._implicit_scope = True
        try:
            try:
                yield
            except BaseException as exc:
                self._settle_after_error()
                self._durable_settle(exc)
                raise
            self._durable_boundary()
        finally:
            self._implicit_scope = False

    def _settle_after_error(self) -> None:
        """Bring the network back in step with the heap after a failed
        implicit transition (see :meth:`_recovery_scope`)."""
        suspended = self._rules_suspended
        self._rules_suspended = True
        try:
            self.deltasets.clear()
            self.manager.end_of_rule_processing()
        finally:
            self._rules_suspended = suspended

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch(self, command: ast.Command):
        if not _read_only_command(command):
            self._require_writable("execute a mutating command")
        if isinstance(command, ast.CreateRelation):
            schema = Schema.of(**{c.name: c.type_name
                                  for c in command.columns})
            relation = self.catalog.create_relation(command.name, schema)
            self.deltasets.register_schema(command.name, schema)
            self._journal_statement(command)
            return None
        # DDL paths need no explicit plan-cache invalidation: the catalog
        # bumps its schema version, which the statement cache and the
        # action and join planners check lazily before reusing a plan.
        if isinstance(command, ast.DestroyRelation):
            self.catalog.destroy_relation(command.name)
            self._journal_statement(command)
            return None
        if isinstance(command, ast.DefineIndex):
            self.catalog.create_index(command.name, command.relation,
                                      command.attribute, command.kind)
            self._journal_statement(command)
            return None
        if isinstance(command, ast.RemoveIndex):
            self.catalog.destroy_index(command.name)
            self._journal_statement(command)
            return None
        if isinstance(command, ast.DefineRule):
            self.manager.define(command, activate=True)
            # Journal the definition ahead of the mutations its priming
            # cycle may generate, so replay order matches execution.
            self._journal_statement(command)
            # Priming may have matched existing data; give the rule the
            # opportunity to run, as after any transition.
            with self._recovery_scope():
                self._run_rule_cycle()
            return None
        if isinstance(command, ast.RemoveRule):
            self.manager.remove(command.name)
            self._journal_statement(command)
            return None
        if isinstance(command, ast.ActivateRule):
            self.manager.activate(command.name)
            self._journal_statement(command)
            with self._recovery_scope():
                self._run_rule_cycle()
            return None
        if isinstance(command, ast.DeactivateRule):
            self.manager.deactivate(command.name)
            self._journal_statement(command)
            return None
        if isinstance(command, ast.Explain):
            return self._run_explain(command)
        if isinstance(command, ast.Halt):
            raise ExecutionError(
                "halt is only meaningful inside a rule action")
        if isinstance(command, ast.Block):
            return self._run_transition(command.commands)
        return self._run_transition([command])

    # ------------------------------------------------------------------
    # transitions and the recognize-act cycle
    # ------------------------------------------------------------------

    def _run_transition(self, commands: list[ast.Command]):
        """Execute commands as one transition, then let rules wake up."""
        result = None
        with self._recovery_scope():
            for command in commands:
                planned = self.optimizer.plan_command(command)
                result = self.executor.run(planned)
                self._note_plan_executed(planned)
            self.deltasets.clear()
            self._run_rule_cycle()
        return result

    def _execute_planned(self, planned, params: dict[str, object] | None):
        """Run a cached plan as one transition (the prepared-statement
        execution path: no parse/analyze/plan work).  With no token
        generated and an empty agenda, the recognize-act cycle would be
        a no-op and is skipped."""
        self._require_open()
        if not _read_only_command(planned.command):
            self._require_writable("execute a mutating command")
        hooks = self.hooks
        with self._recovery_scope():
            generated = hooks.tokens_generated
            result = self.executor.run(planned, params)
            self._note_plan_executed(planned)
            self.deltasets.clear()
            if hooks.tokens_generated != generated or self.manager.agenda:
                self._run_rule_cycle()
        return result

    def bulk_append(self, relation: str, rows) -> int:
        """Append many tuples as one transition, propagating the whole
        Δ-set through the discrimination network as a single batch (the
        set-oriented fast path; values are coerced like ``append``).
        Returns the number of tuples inserted."""
        self._require_open()
        self._require_writable("bulk-append")
        with self._recovery_scope():
            tids = self.hooks.insert_many(relation, rows)
            self.deltasets.clear()
            self._run_rule_cycle()
        return len(tids)

    def _run_rule_cycle(self) -> None:
        """The recognize-act cycle of paper Figure 1.

        The per-transition firing bound lives in the manager's cascade
        guard (:meth:`RuleManager.note_firing`), which on breach raises
        :class:`~repro.errors.RuleLoopError` naming the cycling rules.
        """
        if self._cycle_running or self._rules_suspended:
            return
        self._cycle_running = True
        manager = self.manager
        manager.begin_cascade()
        try:
            select_rule, note_firing = manager.select_rule, manager.note_firing
            fire = self._fire
            # Observers are checked once per cycle: while none is set
            # when it starts, no callback can run to add one mid-cycle.
            observed = self.trace.listening or self.faults.armed("rule.fire")
            while not manager.halted:
                rule = select_rule()
                if rule is None:
                    break
                note_firing(rule)
                fire(rule, observed)
            manager.end_of_rule_processing()
        except BaseException:
            # A cascade that raised never finished: its notifications
            # must not surface at a later statement.
            self.subscriptions.discard()
            raise
        finally:
            self._cycle_running = False
        # Deliver trigger notifications only after the cycle settles, so
        # subscribers always observe a consistent post-cascade state.
        self.subscriptions.deliver()

    def _fire(self, rule: CompiledRule, observed: bool) -> None:
        """One act step: consume the P-node and run the action as a
        transition of its own.  ``observed``: an armed ``rule.fire``
        fault or a trace listener (a subscription is one) may want the
        step."""
        matches = self.manager.consume_matches(rule)
        if not matches:
            return
        if observed:
            self.faults.hit("rule.fire")
        self.firings += 1
        log = self.firing_log
        log.append(_new_record(
            (self.firings, rule.name, rule.priority, len(matches))))
        if len(log) >= 2 * FIRING_LOG_KEEP:
            del log[:-FIRING_LOG_KEEP]
        if observed and self.trace.wants("rule_fired"):
            self.trace.emit("rule_fired", {
                "sequence": self.firings,
                "rule": rule.name,
                "priority": rule.priority,
                "matches": len(matches),
                "bindings": matches,
            })
        # Undo-backed recovery: outside an explicit transaction (where
        # the transaction's own undo log already covers the action and
        # abort() replays it), record this firing's mutations so a
        # failing action can be rolled back without leaving half its
        # effects in the heap or the network.
        undo_scope = not self._in_transaction
        undo, stats, run = self.undo, self.stats, self.executor.run
        if undo_scope:
            undo.begin()
        try:
            params = {PNODE: matches}
            for planned in self.action_planner.plan_firing(rule, matches):
                if planned is None:
                    self.manager.halt()
                    break
                run(planned, params)
                if observed or stats.enabled:
                    self._note_plan_executed(planned, rule=rule.name)
            self.deltasets.clear()
        except BaseException:
            if undo_scope:
                self._recover_firing()
            raise
        else:
            if undo_scope:
                undo.commit()

    def _recover_firing(self) -> None:
        """Roll back a failed rule action (see :meth:`_fire`): replay
        its undo records through the hooks, keeping α-memories and
        P-nodes in step with the heap."""
        self._replay_undo()
        self.deltasets.clear()

    def _note_plan_executed(self, planned, rule: str | None = None) -> None:
        """Count (and, when traced, announce) one executed plan."""
        if self.stats.enabled:
            self.stats.bump("plans.executed")
        if self.trace.wants("plan_executed"):
            payload = {"command": type(planned.command).__name__}
            if rule is not None:
                payload["rule"] = rule
            self.trace.emit("plan_executed", payload)

    # ------------------------------------------------------------------
    # trigger delivery (paper §8 future work)
    # ------------------------------------------------------------------

    def subscribe(self, callback: Subscriber,
                  rule_name: str | None = None) -> int:
        """Receive a Notification after each firing of ``rule_name``
        (or of any rule when None).  Delivery happens after the
        recognize-act cycle settles, never for a cycle that raised.
        The subscription is a ``rule_fired`` listener on :attr:`trace`;
        returns its token for :meth:`unsubscribe`."""
        return self.trace.on(
            self.subscriptions.listener(callback, rule_name), "rule_fired")

    def unsubscribe(self, token: int) -> bool:
        """Cancel a subscription made with :meth:`subscribe`."""
        return self.trace.off(token)

    # ------------------------------------------------------------------
    # trace hooks
    # ------------------------------------------------------------------

    def on_event(self, callback, events=None) -> int:
        """Register ``callback(event, payload)`` for engine trace
        events — ``"rule_fired"``, ``"token_routed"`` and
        ``"plan_executed"`` (all of them when ``events`` is None; a
        single name or an iterable of names otherwise).  Returns a
        token for :meth:`off_event`.  Unlike :meth:`subscribe`, trace
        callbacks run synchronously at the point the event happens."""
        return self.trace.on(callback, events)

    def off_event(self, token: int) -> bool:
        """Remove a trace callback registered with :meth:`on_event`."""
        return self.trace.off(token)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def network(self):
        return self.manager.network

    def relation_rows(self, name: str) -> list[tuple]:
        """All tuples of a relation (test/debug convenience)."""
        return [s.values for s in self.catalog.relation(name).scan()]
