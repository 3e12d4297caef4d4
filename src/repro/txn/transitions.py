"""Transition hooks: the coupling between update processing and rules.

These :class:`~repro.executor.executor.MutationHooks` are what make the
engine *active*: every insert/delete/replace (1) applies to the heap,
(2) is logged for undo, (3) updates the per-transition Δ-sets, which
classify it into the paper's logical-event cases and emit tokens, and
(4) routes those tokens through the discrimination network — all before
control returns to the executor.  This is the tight coupling of rule
condition testing with query and update processing the paper emphasises.
Steps (3) and (4) are skipped for a relation no rule condition names
(no α-memory is registered on it): its tokens could reach nothing.  A
token is not built either while no memory on its relation acts on its
kind (:meth:`~repro.core.network.DiscriminationNetwork.routes`): an
insert's ``+`` or a delete's retractions; the Δ-sets still record the
mutation.

A statement is set-oriented: :meth:`TransitionHooks.insert_many`,
:meth:`~TransitionHooks.delete_many` and
:meth:`~TransitionHooks.replace_many` apply every heap mutation in
order, each with its undo record and journal entry, and then route the
statement's tokens as one Δ-set through ``route_tokens`` (the rule
manager's :meth:`~repro.core.manager.RuleManager.process_tokens`).  A
row that fails leaves the rows before it applied, and their tokens are
still routed.  Tokens route when their statement makes them: nothing is
buffered past a statement, so the network is settled whenever control
is back in the transaction layer.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.catalog.catalog import Catalog
from repro.core.deltasets import DeltaSets
from repro.core.tokens import Token, TokenKind
from repro.executor.executor import MutationHooks
from repro.observe import NULL_STATS
from repro.storage.tuples import TupleId
from repro.txn.undo import UndoLog


class TransitionHooks(MutationHooks):
    """Heap mutation + undo logging + Δ-sets + token routing."""

    #: engine counter registry (``tokens.generated``); the Database
    #: replaces the shared disabled default with its registry
    stats = NULL_STATS
    #: trace hub for ``token_routed`` events (set by the Database)
    trace = None
    #: durability journal (a :class:`~repro.txn.durability
    #: .DurabilityManager`, set by a durable Database): every heap
    #: mutation is reported here so the WAL is an exact redo history
    journal = None
    #: the discrimination network (set by the Database): a relation its
    #: selection index does not watch gets no token; None routes all
    network = None

    def __init__(self, catalog: Catalog, deltasets: DeltaSets,
                 route_tokens: Callable[[Sequence[Token]], None],
                 undo: UndoLog | None = None):
        self.catalog = catalog
        self.deltasets = deltasets
        self.route_tokens = route_tokens
        # "undo or UndoLog()" would discard a passed-in empty log, since
        # UndoLog defines __len__ and an empty log is falsy.
        self.undo = undo if undo is not None else UndoLog()
        #: diagnostics: tokens generated since construction
        self.tokens_generated = 0

    def insert(self, relation_name: str, values: tuple) -> TupleId:
        relation = self.catalog.relation(relation_name)
        tid = relation.insert(values)
        stored = relation.get(tid)       # values after coercion
        self.undo.record_insert(relation_name, tid, stored)
        if self.journal is not None:
            self.journal.journal_insert(relation_name, stored)
        if self._inserts_routed(relation_name):
            self._route(self.deltasets.record_insert(relation_name, tid,
                                                     stored))
        elif self._watched(relation_name):
            self.deltasets.record_inserted((tid,), (stored,))
        return tid

    def insert_many(self, relation_name: str, rows: Iterable[tuple],
                    coerced: bool = False) -> list[TupleId]:
        """Bulk append: apply every heap insert (all or nothing), then
        route the whole Δ-set through the network as a single batch."""
        relation = self.catalog.relation(relation_name)
        tids, stored = relation.insert_many(rows, coerced)
        if self.undo.enabled:
            self.undo.record_inserts(relation_name, tids, stored)
        if self.journal is not None:
            for values in stored:
                self.journal.journal_insert(relation_name, values)
        if self._inserts_routed(relation_name):
            self._route(self.deltasets.record_insert_many(
                relation_name, tids, stored))
        elif self._watched(relation_name):
            self.deltasets.record_inserted(tids, stored)
        return tids

    def delete(self, relation_name: str, tid: TupleId) -> tuple:
        relation = self.catalog.relation(relation_name)
        values = relation.delete(tid)
        self.undo.record_delete(relation_name, tid, values)
        if self.journal is not None:
            self.journal.journal_delete(relation_name, values)
        if self._retractions_seen(relation_name):
            self._route(self.deltasets.record_delete(relation_name, tid,
                                                     values))
        else:
            self.deltasets.forget((tid,))
        return values

    def delete_many(self, relation_name: str,
                    tids: Sequence[TupleId]) -> list[tuple]:
        """A set-oriented delete of live, distinct ``tids``: every heap
        delete first, then one Δ-set.  One TID takes :meth:`delete`."""
        if len(tids) == 1:
            return [self.delete(relation_name, tids[0])]
        values_of = self.catalog.relation(relation_name).delete_many(tids)
        undo = self.undo.record_delete if self.undo.enabled else None
        journal = self.journal
        if not self._retractions_seen(relation_name):
            self.deltasets.forget(tids)
            record = None
        else:
            record = self.deltasets.record_delete
        tokens: list[Token] = []
        try:
            for tid, values in zip(tids, values_of):
                if undo is not None:
                    undo(relation_name, tid, values)
                if journal is not None:
                    journal.journal_delete(relation_name, values)
                if record is not None:
                    tokens += record(relation_name, tid, values)
        finally:
            self._route(tokens)
        return values_of

    def replace(self, relation_name: str, tid: TupleId,
                new_values: tuple) -> tuple:
        relation = self.catalog.relation(relation_name)
        old_values = relation.replace(tid, new_values)
        stored = relation.get(tid)
        if stored == old_values:
            # A no-op overwrite is not a modification: no tokens, no
            # undo — the logical state did not change.
            return old_values
        self.undo.record_replace(relation_name, tid, old_values, stored)
        if self.journal is not None:
            self.journal.journal_replace(relation_name, old_values,
                                         stored)
        if self._watched(relation_name):
            self._route(self.deltasets.record_modify(relation_name, tid,
                                                     old_values, stored))
        return old_values

    def replace_many(self, relation_name: str,
                     updates: Sequence[tuple[TupleId, tuple]]) -> None:
        """A set-oriented replace of live ``(tid, new values)`` pairs:
        each overwrite in order (a no-op overwrite is skipped, as in
        :meth:`replace`), then one Δ-set.  One pair takes
        :meth:`replace`."""
        if len(updates) == 1:
            self.replace(relation_name, *updates[0])
            return
        relation = self.catalog.relation(relation_name)
        overwrite, get = relation.replace, relation.get
        undo = self.undo.record_replace if self.undo.enabled else None
        journal = self.journal
        record = (self.deltasets.record_modify
                  if self._watched(relation_name) else None)
        tokens: list[Token] = []
        try:
            for tid, new_values in updates:
                old_values = overwrite(tid, new_values)
                stored = get(tid)
                if stored == old_values:
                    continue
                if undo is not None:
                    undo(relation_name, tid, old_values, stored)
                if journal is not None:
                    journal.journal_replace(relation_name, old_values,
                                            stored)
                if record is not None:
                    tokens += record(relation_name, tid, old_values,
                                     stored)
        finally:
            self._route(tokens)

    def restore(self, relation_name: str, tid: TupleId,
                values: tuple) -> None:
        """Re-create a deleted tuple under its original TID (undo only).

        Routed through the Δ-sets as an insertion so the network stays
        consistent; the undo driver disables further logging itself.
        """
        relation = self.catalog.relation(relation_name)
        relation.restore(tid, values)
        if self.journal is not None:
            self.journal.journal_insert(relation_name, values)
        if self._inserts_routed(relation_name):
            self._route(self.deltasets.record_insert(relation_name, tid,
                                                     values))
        elif self._watched(relation_name):
            self.deltasets.record_inserted((tid,), (values,))

    def relation_created(self, relation_name: str, schema) -> None:
        """A relation came into being outside DDL dispatch (``retrieve
        into``): register its schema with the Δ-sets and journal an
        equivalent ``create`` so WAL replay can rebuild it."""
        self.deltasets.register_schema(relation_name, schema)
        if self.journal is not None:
            self.journal.journal_relation_created(relation_name, schema)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def flush_tokens(self) -> None:
        """Does nothing: every token is routed by its statement.  Kept
        only as a target of the benchmark tracer
        (``benchmarks/e2e/tracer.py``); roadmap item 24a drops it."""

    def _watched(self, relation_name: str) -> bool:
        """An α-memory watches the relation, or a ``token_routed``
        subscriber wants every token (rule DDL cannot run mid-transition)."""
        network, trace = self.network, self.trace
        return (network is None
                or network.selection_index.watches(relation_name)
                or trace is not None and trace.wants("token_routed"))

    def _inserts_routed(self, relation_name: str) -> bool:
        """Whether an insert on the relation must build its ``+`` token:
        a memory there acts on one, or a ``token_routed`` subscriber
        wants every token."""
        network, trace = self.network, self.trace
        return (network is None
                or network.routes(relation_name, TokenKind.PLUS)
                or trace is not None and trace.wants("token_routed"))

    def _retractions_seen(self, relation_name: str) -> bool:
        """Whether a delete on the relation must build its tokens: a
        memory there can act on a retraction, or a ``token_routed``
        subscriber wants every token."""
        network, trace = self.network, self.trace
        return (network is None
                or trace is not None and trace.wants("token_routed")
                or network.sees_retractions(relation_name))

    def _route(self, tokens: list[Token]) -> None:
        if not tokens:
            return
        self.tokens_generated += len(tokens)
        stats = self.stats
        if stats.enabled:
            counters = stats.counters
            counters["tokens.generated"] = \
                counters.get("tokens.generated", 0) + len(tokens)
        trace = self.trace
        if trace is not None and trace.wants("token_routed"):
            for token in tokens:
                trace.emit("token_routed", {
                    "relation": token.relation,
                    "kind": token.kind.name,
                    "tid": token.tid,
                    "values": token.values,
                })
        self.route_tokens(tokens)
