"""Prepared statements: a parameterized plan cache over the pipeline.

A :class:`Prepared` carries one DML command through parse → analyze →
plan exactly once and then executes the finished plan any number of
times, each execution supplying a parameter vector for the ``$name`` /
``$1`` placeholders in the text.  Placeholders compile to closures that
read the vector at runtime (:mod:`repro.lang.expr`), and parameterized
equality/range predicates still drive index selection — the access path
is fixed at plan time, the key resolves per execution
(:class:`~repro.planner.plans.IndexProbe` /
:class:`~repro.planner.plans.IndexScan` bound expressions).

Staleness is handled by catalog versioning: every DDL change (relation,
index, rule lifecycle) bumps :attr:`Catalog.version <repro.catalog
.catalog.Catalog.version>`; a Prepared remembers the version it planned
against and transparently re-parses, re-analyzes and re-plans when the
versions no longer match, so a cached plan can never silently use a
dropped index or miss a new one.

:class:`StatementCache` is the LRU used by ``Database.execute`` to make
the same machinery transparent for repeated ad-hoc text.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ExecutionError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_command
from repro.observe import NULL_STATS


def is_cacheable(command: ast.Command) -> bool:
    """Whether a command's plan may be cached and re-executed.

    Only plain DML qualifies: ``retrieve into`` creates a relation (not
    repeatable), and DDL / rule management have no plans to cache.
    """
    if isinstance(command, ast.Retrieve):
        return command.into is None
    return isinstance(command, (ast.Append, ast.Delete, ast.Replace))


class Prepared:
    """One prepared statement bound to a database.

    Obtained from ``Database.prepare``.  ``signature`` lists the distinct
    parameter names in first-appearance order; :meth:`execute` takes them
    as keyword arguments.
    """

    def __init__(self, db, text: str, command: ast.Command | None = None):
        self.db = db
        self.text = text
        if command is None:
            command = db.analyzer.analyze(parse_command(text))
        if not is_cacheable(command):
            raise ExecutionError(
                f"cannot prepare a {type(command).__name__} command; "
                f"only retrieve/append/delete/replace can be prepared")
        self.signature: tuple[str, ...] = tuple(
            getattr(command, "param_signature", ()) or ())
        self._command = command
        self._planned = db.optimizer.plan_command(command)
        self._version = db.catalog.version
        # One statement may be executed from several threads (the shell
        # beside ``\serve``); the replan-on-version-mismatch must not
        # interleave (a half-swapped command/plan pair would execute).
        self._replan_lock = threading.Lock()
        #: diagnostics: executions served and plans built
        self.executions = 0
        self.replans = 1

    # ------------------------------------------------------------------

    def current_plan(self):
        """The cached PlannedCommand, re-planned if the catalog moved.

        Semantic analysis annotates the syntax tree in place, so a
        replan starts from a fresh parse of the original text — the
        catalog change may alter name resolution, not just access paths.
        """
        if self._version != self.db.catalog.version:
            with self._replan_lock:
                if self._version != self.db.catalog.version:
                    command = self.db.analyzer.analyze(
                        parse_command(self.text))
                    self._command = command
                    self._planned = self.db.optimizer.plan_command(
                        command)
                    self._version = self.db.catalog.version
                    self.replans += 1
                    getattr(self.db, "stats", NULL_STATS).bump(
                        "plan_cache.replans")
        return self._planned

    def execute(self, **params):
        """Run the cached plan with the given parameter values."""
        return self.execute_with(params)

    def check_params(self, params: dict[str, object] | None) -> dict:
        """``params`` (None = none) if it names exactly the statement's
        parameters; :class:`~repro.errors.ExecutionError` otherwise."""
        params = params or {}
        missing = [name for name in self.signature if name not in params]
        if missing:
            raise ExecutionError(
                "missing value(s) for parameter(s) "
                + ", ".join(f"${name}" for name in missing))
        unknown = sorted(set(params) - set(self.signature))
        if unknown:
            raise ExecutionError(
                "unknown parameter(s) "
                + ", ".join(f"${name}" for name in unknown)
                + f"; statement takes "
                + (", ".join(f"${name}" for name in self.signature)
                   if self.signature else "no parameters"))
        return params

    def execute_with(self, params: dict[str, object] | None):
        """Run the cached plan; ``params`` maps placeholder names to
        values (``$1``-style placeholders use the key ``"1"``)."""
        params = self.check_params(params)
        planned = self.current_plan()
        self.executions += 1
        getattr(self.db, "stats", NULL_STATS).bump(
            "plan_cache.executions")
        return self.db._execute_planned(planned, params)

    @property
    def read_only(self) -> bool:
        """Whether the statement is a plain retrieve (no ``into``)."""
        command = self._command
        return isinstance(command, ast.Retrieve) and command.into is None

    def execute_readonly(self, params: dict[str, object] | None):
        """Run the cached plan *outside* the transition machinery.

        The serving layer's read path: a plain retrieve needs no
        recovery scope, token flush or recognize-act cycle — it only
        has to run between transitions, which the service's engine
        lock guarantees.  Raises :class:`~repro.errors.ExecutionError`
        for any statement that could mutate.
        """
        if not self.read_only:
            raise ExecutionError(
                f"cannot execute a {type(self._command).__name__} "
                f"statement on the read-only path; route it through "
                f"the serialized write path")
        params = self.check_params(params)
        planned = self.current_plan()
        self.executions += 1
        stats = getattr(self.db, "stats", NULL_STATS)
        stats.bump("plan_cache.executions")
        self.db._require_open()
        result = self.db.executor.run(planned, params or None)
        self.db._note_plan_executed(planned)
        return result

    def explain(self) -> str:
        """The (current) physical plan, as an indented outline."""
        from repro.planner.plans import explain as explain_plan
        return explain_plan(self.current_plan().plan)

    def __repr__(self) -> str:
        sig = ", ".join(f"${name}" for name in self.signature)
        return f"Prepared({self.text!r}, params=[{sig}])"


class StatementCache:
    """LRU cache of Prepared statements keyed by command text.

    Backs the transparent caching inside ``Database.execute``: repeated
    ad-hoc DML pays the parse/analyze/plan cost once.  Entries re-plan
    themselves on catalog-version mismatch, so eviction is purely a
    memory bound, never a correctness mechanism.

    Thread-safe: the shell beside ``\\serve`` hits ``lookup`` /
    ``store`` while the serving loop does, and ``OrderedDict`` is not —
    an unlocked ``move_to_end`` racing an eviction can leave the recency
    list corrupt (a KeyError out of ``lookup``, or an entry evicted
    while being returned).  One lock serializes the short critical
    sections; plan execution itself happens outside it.
    """

    def __init__(self, capacity: int = 128, stats=None):
        self.capacity = capacity
        self._entries: "OrderedDict[str, Prepared]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: engine counter registry (``stmt_cache.*``)
        self.stats = stats or NULL_STATS

    def lookup(self, text: str) -> Prepared | None:
        with self._lock:
            entry = self._entries.get(text)
            if entry is not None:
                self._entries.move_to_end(text)
                self.hits += 1
        if entry is None:
            self.misses += 1
            self.stats.bump("stmt_cache.misses")
            return None
        self.stats.bump("stmt_cache.hits")
        return entry

    def store(self, text: str, prepared: Prepared) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[text] = prepared
            self._entries.move_to_end(text)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, text: str) -> bool:
        with self._lock:
            return text in self._entries
