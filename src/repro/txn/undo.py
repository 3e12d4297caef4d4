"""Undo logging for transaction abort.

Every mutation that flows through the transition hooks is logged here as
a physical inverse.  Abort replays the inverses in reverse order —
*through the hooks*, so the discrimination network sees compensating
tokens and α-memories / P-nodes stay consistent with the data (the paper
delegates recovery to EXODUS; this is the equivalent for our in-memory
engine, documented in DESIGN.md).  Rule firing is suppressed while the
undo replays.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import NamedTuple

from repro.storage.tuples import TupleId


class UndoRecord(NamedTuple):
    """One logged mutation: enough to invert it."""

    op: str                   # 'insert' | 'delete' | 'replace'
    relation: str
    tid: TupleId
    before: tuple | None      # values before (delete/replace)
    after: tuple | None       # values after (insert/replace)


#: ``_new_record((op, relation, tid, before, after))`` is
#: ``UndoRecord(...)`` without the named tuple's Python constructor
_new_record = partial(tuple.__new__, UndoRecord)


class UndoLog:
    """An append-only log of mutations for the open transaction."""

    def __init__(self):
        self._records: list[UndoRecord] = []
        self.enabled = False

    def begin(self) -> None:
        self._records.clear()
        self.enabled = True

    def commit(self) -> None:
        self._records.clear()
        self.enabled = False

    def record_insert(self, relation: str, tid: TupleId,
                      values: tuple) -> None:
        if self.enabled:
            self._records.append(
                UndoRecord("insert", relation, tid, None, values))

    def record_inserts(self, relation: str, tids, values_of) -> None:
        """:meth:`record_insert` for each tid and its values."""
        if self.enabled:
            self._records.extend(map(_new_record, zip(
                repeat("insert"), repeat(relation), tids, repeat(None),
                values_of)))

    def record_delete(self, relation: str, tid: TupleId,
                      values: tuple) -> None:
        if self.enabled:
            self._records.append(
                UndoRecord("delete", relation, tid, values, None))

    def record_replace(self, relation: str, tid: TupleId,
                       before: tuple, after: tuple) -> None:
        if self.enabled:
            self._records.append(
                UndoRecord("replace", relation, tid, before, after))

    def take_reversed(self) -> list[UndoRecord]:
        """The records to undo, newest first; the log is cleared."""
        out = list(reversed(self._records))
        self._records.clear()
        self.enabled = False
        return out

    def __len__(self) -> int:
        return len(self._records)
