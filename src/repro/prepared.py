"""Prepared statements: a parameterized plan cache over the pipeline.

A :class:`Prepared` carries one DML command through parse → analyze →
plan exactly once and then executes the finished plan any number of
times, each execution supplying a parameter vector for the ``$name`` /
``$1`` placeholders in the text.  Placeholders compile to closures that
read the vector at runtime (:mod:`repro.lang.expr`), and the optimizer
plans a parameter bound exactly as it plans a literal one — the access
path is fixed at plan time, the key resolves per execution
(:class:`~repro.planner.plans.IndexProbe` /
:class:`~repro.planner.plans.IndexScan` bound expressions) — so a
statement-cache text explains and runs the plan the full pipeline
would build for it.

Staleness is handled by catalog versioning: every relation or index
change bumps :attr:`Catalog.schema_version <repro.catalog.catalog
.Catalog.schema_version>`; a Prepared remembers the version it planned
against and transparently re-parses, re-analyzes and re-plans when the
versions no longer match, so a cached plan can never silently use a
dropped index or miss a new one.  Rule lifecycle does not move it: a
user command's plan depends on relations, indexes and statistics only
(query modification applies to rule *actions*, whose planners watch
:attr:`Catalog.version`).

:class:`StatementCache` is the LRU that makes the same machinery
transparent for ad-hoc text: ``Database.execute`` keys it by the *shape*
of a DML text (:func:`shape_of`) and runs the shape's one Prepared with
the text's own literals as the parameter vector, so ``parse → analyze →
plan`` is paid once per shape, not once per text.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict

from repro.errors import ExecutionError
from repro.lang import ast_nodes as ast
from repro.lang.ast_nodes import deparse
from repro.lang.lexer import Token
from repro.lang.parser import parse_command
from repro.observe import NULL_STATS

_DML = frozenset({"retrieve", "append", "delete", "replace"})


def shape_of(tokens: list[Token]) -> tuple[tuple, list] | None:
    """``(key, literals)`` for the tokens of a DML text the statement
    cache serves; None for DDL, rule commands, ``do … end``, ``retrieve
    into``, a text with its own ``$`` placeholders and one that divides
    after ``where`` (``t.a = 1/0`` raises at plan time, rows or none).

    The key is the token values with each number and string literal
    replaced by its class (``true``, ``null``, ``inf``… are keywords and
    stay); the literals, in text order, are the parameter vector.  The
    type is in the key because analysis checks it: ``t.a = 1.5`` and
    ``t.a = 1`` are different statements to an int4 attribute.
    """
    first = tokens[0]
    if first.kind != "keyword" or first.value not in _DML:
        return None
    key: list = []
    literals: list = []
    for kind, value, _, _ in tokens:
        if kind == "number" or kind == "string":
            literals.append(value)
            value = type(value)
        elif kind == "param" or value == "/" and "where" in key:
            return None
        key.append(value)
    if "into" in key[1:3]:              # retrieve [unique] into
        return None
    return tuple(key), literals


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

    def __init__(self, db, text: str, command: ast.Command | None = None,
                 tokens: list[Token] | None = None):
        self.db = db
        self.text = text
        #: a shape entry of the statement cache: the tokens of its first
        #: text, parsed (now and at each replan) with every literal
        #: lifted to a placeholder of the literal's type
        self._tokens = tokens
        if command is None:
            command = self._analyze()
        if not is_cacheable(command):
            raise ExecutionError(
                f"cannot prepare a {type(command).__name__} command; "
                f"only retrieve/append/delete/replace can be prepared")
        self.signature: tuple[str, ...] = tuple(
            getattr(command, "param_signature", ()) or ())
        self._names = frozenset(self.signature)
        self._command = command
        self._planned = db.optimizer.plan_command(command)
        self._version = db.catalog.schema_version
        # One statement may be executed from several threads (the shell
        # beside ``\serve``); the replan-on-version-mismatch must not
        # interleave (a half-swapped command/plan pair would execute).
        self._replan_lock = threading.Lock()
        #: diagnostics: executions served and plans built
        self.executions = 0
        self.replans = 1

    # ------------------------------------------------------------------

    def _analyze(self) -> ast.Command:
        lift = self._tokens is not None
        return self.db.analyzer.analyze(
            parse_command(self._tokens if lift else self.text, lift))

    def current_plan(self):
        """The cached PlannedCommand, re-planned if the catalog moved.

        Semantic analysis annotates the syntax tree in place, so a
        replan starts from a fresh parse of the original text — the
        catalog change may alter name resolution, not just access paths.
        """
        if self._version != self.db.catalog.schema_version:
            with self._replan_lock:
                if self._version != self.db.catalog.schema_version:
                    command = self._analyze()
                    self._command = command
                    self._planned = self.db.optimizer.plan_command(
                        command)
                    self._version = self.db.catalog.schema_version
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
        if isinstance(params, dict) and params.keys() == self._names:
            return params               # the common case: exactly those
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

    def explain(self, params: dict[str, object] | None = None) -> str:
        """The (current) physical plan, as an indented outline; with a
        statement-cache text's literals as ``params``, each ``$name``
        prints as its literal (one pass: every string constant was
        lifted and no identifier has a ``$``, so each is a placeholder).
        """
        from repro.planner.plans import explain as explain_plan
        outline = explain_plan(self.current_plan().plan)
        if params:
            outline = _PLACEHOLDER.sub(
                lambda m: deparse(ast.Const(params[m.group(1)])), outline)
        return outline

    def __repr__(self) -> str:
        sig = ", ".join(f"${name}" for name in self.signature)
        return f"Prepared({self.text!r}, params=[{sig}])"


_PLACEHOLDER = re.compile(r"\$(\w+)")


class StatementCache:
    """LRU cache of Prepared statements keyed by statement shape
    (:func:`shape_of`).

    Backs the transparent caching inside ``Database.execute``: ad-hoc
    DML pays the parse/analyze/plan cost once per shape.  Entries
    re-plan themselves on catalog-version mismatch, so eviction is
    purely a memory bound, never a correctness mechanism.

    Thread-safe: the shell beside ``\\serve`` hits ``lookup`` /
    ``store`` while the serving loop does, and ``OrderedDict`` is not —
    an unlocked ``move_to_end`` racing an eviction can leave the recency
    list corrupt (a KeyError out of ``lookup``, or an entry evicted
    while being returned).  One lock serializes the short critical
    sections; plan execution itself happens outside it.
    """

    def __init__(self, capacity: int = 128, stats=None):
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, Prepared]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: engine counter registry (``stmt_cache.*``)
        self.stats = stats or NULL_STATS

    def lookup(self, key: tuple) -> Prepared | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is None:
            self.stats.bump("stmt_cache.misses")
            return None
        self.stats.bump("stmt_cache.hits")
        return entry

    def store(self, key: tuple, prepared: Prepared) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = prepared
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries
