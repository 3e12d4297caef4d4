"""Transition hooks: the coupling between update processing and rules.

These :class:`~repro.executor.executor.MutationHooks` are what make the
engine *active*: every insert/delete/replace (1) applies to the heap,
(2) is logged for undo, (3) updates the per-transition Δ-sets, which
classify it into the paper's logical-event cases and emit tokens, and
(4) routes those tokens through the discrimination network — all before
control returns to the executor.  This is the tight coupling of rule
condition testing with query and update processing the paper emphasises.
Steps (3) and (4) are skipped for a relation no rule condition names
(no α-memory is registered on it): its tokens could reach nothing.

Each mutation's token group is handed to the network's
:meth:`~repro.core.network.DiscriminationNetwork.process_tokens` entry
point, which routes it token by token down the one path a lone token
takes.  With ``defer_routing`` enabled (``Database(batch_tokens=True)``)
the groups of a whole transition accumulate and flush as one Δ-set at
the transition boundary.  :meth:`TransitionHooks.insert_many` is the
bulk-append fast path: it applies every heap insert first and routes
the combined Δ-set once.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.catalog.catalog import Catalog
from repro.core.deltasets import DeltaSets
from repro.core.tokens import Token
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
                 undo: UndoLog | None = None,
                 defer_routing: bool = False):
        self.catalog = catalog
        self.deltasets = deltasets
        self.route_tokens = route_tokens
        # "undo or UndoLog()" would discard a passed-in empty log, since
        # UndoLog defines __len__ and an empty log is falsy.
        self.undo = undo if undo is not None else UndoLog()
        #: buffer whole-transition Δ-sets and route them as one batch at
        #: :meth:`flush_tokens` time (the transaction layer calls it at
        #: every transition boundary) instead of per mutation
        self.defer_routing = defer_routing
        self._buffer: list[Token] = []
        #: diagnostics: tokens generated since construction
        self.tokens_generated = 0

    def insert(self, relation_name: str, values: tuple) -> TupleId:
        relation = self.catalog.relation(relation_name)
        tid = relation.insert(values)
        stored = relation.get(tid)       # values after coercion
        self.undo.record_insert(relation_name, tid, stored)
        if self.journal is not None:
            self.journal.journal_insert(relation_name, stored)
        if self._watched(relation_name):
            self._route(self.deltasets.record_insert(relation_name, tid,
                                                     stored))
        return tid

    def insert_many(self, relation_name: str,
                    rows: Iterable[tuple]) -> list[TupleId]:
        """Bulk append: apply every heap insert, then route the whole
        Δ-set through the network as a single batch."""
        relation = self.catalog.relation(relation_name)
        pairs = relation.insert_many(rows)
        if self.undo.enabled:
            record_undo = self.undo.record_insert
            for tid, stored in pairs:
                record_undo(relation_name, tid, stored)
        if self.journal is not None:
            for _, stored in pairs:
                self.journal.journal_insert(relation_name, stored)
        if self._watched(relation_name):
            self._route(self.deltasets.record_insert_many(relation_name,
                                                          pairs))
        return [tid for tid, _ in pairs]

    def delete(self, relation_name: str, tid: TupleId) -> tuple:
        relation = self.catalog.relation(relation_name)
        values = relation.delete(tid)
        self.undo.record_delete(relation_name, tid, values)
        if self.journal is not None:
            self.journal.journal_delete(relation_name, values)
        if self._watched(relation_name):
            self._route(self.deltasets.record_delete(relation_name, tid,
                                                     values))
        return values

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
        if self._watched(relation_name):
            self._route(self.deltasets.record_insert(relation_name, tid,
                                                     values))

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
        """Route any deferred tokens (a no-op unless ``defer_routing``).

        Must run before anything reads the network — the transaction
        layer calls it at every transition boundary, ahead of the
        recognize-act cycle.
        """
        if self._buffer:
            buffered, self._buffer = self._buffer, []
            self._dispatch(buffered)

    def _watched(self, relation_name: str) -> bool:
        """An α-memory watches the relation, or a ``token_routed``
        subscriber wants every token (rule DDL cannot run mid-transition)."""
        network, trace = self.network, self.trace
        return (network is None
                or network.selection_index.watches(relation_name)
                or trace is not None and trace.wants("token_routed"))

    def _route(self, tokens: list[Token]) -> None:
        if not tokens:
            return
        self.tokens_generated += len(tokens)
        if self.stats.enabled:
            self.stats.bump("tokens.generated", len(tokens))
        if self.defer_routing:
            self._buffer.extend(tokens)
            return
        self._dispatch(tokens)

    def _dispatch(self, tokens: list[Token]) -> None:
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
