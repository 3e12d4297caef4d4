"""Δ-sets [I, M] and logical-event token generation (paper §4.3.1).

For each relation updated during a transition, Ariel keeps a pair of
Δ-sets: **I** holds an entry per tuple *inserted* during the current
transition, **M** an entry per tuple that existed at the beginning of the
transition and has been *modified*.  (No third set is needed for
deletions — a deleted tuple cannot be touched again.)  These sets let the
token generator classify every physical operation into the paper's four
per-tuple life cycles and emit exactly the token sequence its Figure-5
machinery expects:

==========  ==========  =====================================
case        net effect  tokens per physical operation
==========  ==========  =====================================
1  im*      insert      ins: ``+``(append); mod: ``−``(append), ``+``(append)
2  im*d     nothing     … ; del: ``−``(append)
3  m+       modify      1st mod: ``−``(no event), ``Δ+``(replace);
                        later: ``Δ−``(replace), ``Δ+``(replace)
4  m*d      delete      … ; del: ``Δ−``(replace), ``−``(delete)
                        (plain del: ``−``(delete))
==========  ==========  =====================================

The replace target-list is recomputed against the value at the beginning
of the transition, so it names the *net* set of changed attributes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.schema import Schema
from repro.core import tokens as tok
from repro.core.tokens import EventSpecifier, Token
from repro.lang.ast_nodes import EventKind
from repro.storage.tuples import TupleId

#: the specifiers without a target list, shared by every token
_APPEND = EventSpecifier(EventKind.APPEND)
_DELETE = EventSpecifier(EventKind.DELETE)

@dataclass
class _ModifiedEntry:
    """M-set entry: a pre-existing tuple's value at transition start and
    its current value."""

    original: tuple
    current: tuple


class DeltaSets:
    """The [I, M] Δ-set pair for every relation touched by one transition.

    ``record_*`` methods are called by the transition manager *after* the
    physical mutation has been applied to the heap; they return the tokens
    to route through the discrimination network, in order.
    """

    def __init__(self, schemas: dict[str, Schema] | None = None):
        #: I: tid -> the current value of a tuple inserted this
        #: transition (updated as in-transition modifications land)
        self._inserted: dict[TupleId, tuple] = {}
        self._modified: dict[TupleId, _ModifiedEntry] = {}
        self._schemas = schemas or {}

    # ------------------------------------------------------------------
    # recording physical operations
    # ------------------------------------------------------------------

    def record_insert(self, relation: str, tid: TupleId,
                      values: tuple) -> list[Token]:
        """A tuple was physically inserted."""
        self._inserted[tid] = values
        return [tok.plus(relation, tid, values, _APPEND)]

    def record_inserted(self, tids, values_of) -> None:
        """Enter inserted tuples in the I-set with no token to route
        (no memory acts on a ``+`` on their relation)."""
        self._inserted.update(zip(tids, values_of))

    def record_insert_many(self, relation: str, tids,
                           values_of) -> list[Token]:
        """Bulk variant of :meth:`record_insert` for parallel lists of
        tids and values: same I-set entries and ``+`` tokens."""
        self._inserted.update(zip(tids, values_of))
        return tok.plus_many(relation, tids, values_of, _APPEND)

    def record_modify(self, relation: str, tid: TupleId,
                      old_values: tuple, new_values: tuple) -> list[Token]:
        """A tuple was physically overwritten in place."""
        inserted = self._inserted.get(tid)
        if inserted is not None:
            # Case 1: modification of a tuple inserted this transition.
            # Net effect stays "insert": retract the old inserted value
            # and assert the new one, both as append events.
            self._inserted[tid] = new_values
            return [tok.minus(relation, tid, inserted, _APPEND),
                    tok.plus(relation, tid, new_values, _APPEND)]
        modified = self._modified.get(tid)
        if modified is not None:
            # Case 3, later modifications: swap the transition pair.
            retract = tok.delta_minus(
                relation, tid, modified.current, modified.original,
                self._replace_event(relation, modified.original,
                                    modified.current))
            modified.current = new_values
            assert_ = tok.delta_plus(
                relation, tid, new_values, modified.original,
                self._replace_event(relation, modified.original,
                                    new_values))
            return [retract, assert_]
        # Case 3, first modification of a pre-existing tuple: a simple −
        # with no event specifier, then the Δ+.
        self._modified[tid] = _ModifiedEntry(old_values, new_values)
        return [tok.minus(relation, tid, old_values, None),
                tok.delta_plus(relation, tid, new_values, old_values,
                               self._replace_event(relation, old_values,
                                                   new_values))]

    def record_delete(self, relation: str, tid: TupleId,
                      last_values: tuple) -> list[Token]:
        """A tuple was physically deleted."""
        inserted = self._inserted.pop(tid, None)
        if inserted is not None:
            # Case 2: inserted then deleted within the transition — net
            # effect nothing.  The final delete generates an insert −
            # (append specifier), which must NOT match on-delete rules.
            return [tok.minus(relation, tid, inserted, _APPEND)]
        modified = self._modified.pop(tid, None)
        if modified is not None:
            # Case 4: retract the transition pair, then assert the delete
            # event.  The delete − carries the value actually deleted.
            retract = tok.delta_minus(
                relation, tid, modified.current, modified.original,
                self._replace_event(relation, modified.original,
                                    modified.current))
            return [retract,
                    tok.minus(relation, tid, last_values, _DELETE)]
        # Plain deletion of an untouched tuple.
        return [tok.minus(relation, tid, last_values, _DELETE)]

    def forget(self, tids) -> None:
        """Tuples were physically deleted and no memory can see their
        retractions: drop them from the sets, build no token."""
        inserted, modified = self._inserted, self._modified
        if inserted or modified:
            for tid in tids:
                if inserted.pop(tid, None) is None:
                    modified.pop(tid, None)

    # ------------------------------------------------------------------
    # inspection / lifecycle
    # ------------------------------------------------------------------

    def net_effect(self, tid: TupleId) -> str:
        """The net effect so far for a tuple: 'insert', 'modify' or
        'untouched' (deleted tuples drop out of both sets)."""
        if tid in self._inserted:
            return "insert"
        if tid in self._modified:
            return "modify"
        return "untouched"

    def inserted_count(self) -> int:
        return len(self._inserted)

    def modified_count(self) -> int:
        return len(self._modified)

    def clear(self) -> None:
        """Forget everything — called at the end of each transition."""
        self._inserted.clear()
        self._modified.clear()

    # ------------------------------------------------------------------

    def _replace_event(self, relation: str, original: tuple,
                       current: tuple) -> EventSpecifier:
        """replace(target-list) with the net set of changed attributes."""
        schema = self._schemas.get(relation)
        if schema is None:
            changed = tuple(str(i) for i, (a, b)
                            in enumerate(zip(original, current)) if a != b)
        else:
            names = schema.names()
            changed = tuple(names[i] for i, (a, b)
                            in enumerate(zip(original, current)) if a != b)
        return EventSpecifier(EventKind.REPLACE, changed)

    def register_schema(self, relation: str, schema: Schema) -> None:
        """Teach the Δ-sets a relation's attribute names (for replace
        target-lists)."""
        self._schemas[relation] = schema
