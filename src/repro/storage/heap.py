"""Heap relations: the base tables of the engine.

A :class:`HeapRelation` stores tuples in numbered slots.  Slot numbers are
never reused, so a :class:`~repro.storage.tuples.TupleId` observed anywhere
(a P-node, an α-memory, an undo log) either still names the same logical
tuple or names nothing.  ``replace`` mutates a slot in place, preserving
the TID, exactly the property the paper's ``replace'``/``delete'`` action
commands rely on.

Secondary indexes registered on the relation are maintained automatically
by every mutation.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Callable, Iterator

from repro.catalog.schema import Schema
from repro.errors import StorageError
from repro.storage.indexes import Index
from repro.storage.tuples import StoredTuple, TupleId


#: ``new_tid((relation, slot))`` is ``TupleId(relation, slot)`` without
#: the named tuple's Python-level constructor, for the bulk loops
new_tid = partial(tuple.__new__, TupleId)


class HeapRelation:
    """An in-memory relation with stable tuple identifiers."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self._slots: dict[int, tuple] = {}
        self._next_slot = 0
        #: slots are handed out monotonically and dicts keep insertion
        #: order, so only :meth:`restore` can leave ``_slots`` unsorted
        self._unordered = False
        self._indexes: dict[str, Index] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def insert(self, values: tuple) -> TupleId:
        """Append a tuple; returns its new TID."""
        values = self.schema.coerce_values(tuple(values))
        tid = TupleId(self.name, self._next_slot)
        self._next_slot += 1
        self._slots[tid.slot] = values
        for index in self._indexes.values():
            index.insert(index.key_of(values), tid)
        return tid

    def insert_many(self, rows, coerced: bool = False
                    ) -> tuple[list[TupleId], list[tuple]]:
        """Bulk append: per-row semantics identical to :meth:`insert`
        (coercion, index maintenance, fresh TIDs) with the loop
        invariants hoisted; returns the new TIDs and the stored values,
        in row order, so callers need no follow-up fetch.  ``coerced``
        rows are a list of value tuples a plan proved already
        stored-typed: they skip coercion.

        All-or-nothing: every row is coerced before any is applied, so
        one bad row mid-batch cannot leave earlier rows in the heap
        with their tokens never routed.
        """
        if not coerced:
            coerce = self.schema.coerce_values
            rows = [coerce(tuple(values)) for values in rows]
        elif not isinstance(rows, list):
            rows = list(rows)
        start = self._next_slot
        numbers = range(start, start + len(rows))
        tids = list(map(new_tid, zip(repeat(self.name), numbers)))
        self._slots.update(zip(numbers, rows))
        self._next_slot = start + len(rows)
        for index in self._indexes.values():
            for tid, values in zip(tids, rows):
                index.insert(index.key_of(values), tid)
        return tids, rows

    def delete(self, tid: TupleId) -> tuple:
        """Remove the tuple named by ``tid``; returns its last values."""
        values = self._require(tid)
        del self._slots[tid.slot]
        for index in self._indexes.values():
            index.delete(index.key_of(values), tid)
        return values

    def delete_many(self, tids) -> list[tuple]:
        """Remove every tuple ``tids`` names (all checked first, so a
        bad one removes nothing); returns their last values in order."""
        name, get = self.name, self._slots.get
        values_of = [get(tid.slot) if tid.relation == name else None
                     for tid in tids]
        if None in values_of:
            self._require(tids[values_of.index(None)])  # the precise error
        slots, indexes = self._slots, list(self._indexes.values())
        for tid, values in zip(tids, values_of):
            del slots[tid.slot]
            for index in indexes:
                index.delete(index.key_of(values), tid)
        return values_of

    def replace(self, tid: TupleId, new_values: tuple) -> tuple:
        """Overwrite the tuple in place; returns the old values."""
        old_values = self._require(tid)
        new_values = self.schema.coerce_values(tuple(new_values))
        self._slots[tid.slot] = new_values
        for index in self._indexes.values():
            old_key = index.key_of(old_values)
            new_key = index.key_of(new_values)
            if old_key != new_key:
                index.delete(old_key, tid)
                index.insert(new_key, tid)
        return old_values

    def restore(self, tid: TupleId, values: tuple) -> None:
        """Re-create a previously deleted tuple under its original TID.

        Used only by the undo machinery when rolling back a delete; normal
        clients use :meth:`insert`.
        """
        if tid.relation != self.name:
            raise StorageError(
                f"TID {tid} does not belong to relation {self.name!r}")
        if tid.slot in self._slots:
            raise StorageError(f"restore over live slot {tid}")
        values = self.schema.coerce_values(tuple(values))
        self._slots[tid.slot] = values
        if tid.slot + 1 < self._next_slot:
            self._unordered = True
        self._next_slot = max(self._next_slot, tid.slot + 1)
        for index in self._indexes.values():
            index.insert(index.key_of(values), tid)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    def get(self, tid: TupleId) -> tuple:
        """Values of the tuple named by ``tid``."""
        return self._require(tid)

    def contains(self, tid: TupleId) -> bool:
        """True if ``tid`` names a live tuple of this relation."""
        return tid.relation == self.name and tid.slot in self._slots

    def items(self):
        """``(slot, values)`` of every live tuple in slot order: the
        scan with no per-row object.  A live view — the relation must
        not be mutated while it is iterated."""
        if self._unordered:
            self._slots = dict(sorted(self._slots.items()))
            self._unordered = False
        return self._slots.items()

    def scan(self) -> Iterator[StoredTuple]:
        """Yield every live tuple in slot order."""
        self.items()                      # restores slot order if lost
        name, slots = self.name, self._slots
        for slot in list(slots):
            yield StoredTuple(TupleId(name, slot), slots[slot])

    def scan_where(self, predicate: Callable[[tuple], bool]
                   ) -> Iterator[StoredTuple]:
        """Yield tuples whose values satisfy ``predicate``."""
        for stored in self.scan():
            if predicate(stored.values):
                yield stored

    def fetch(self, tids) -> Iterator[StoredTuple]:
        """Yield StoredTuples for the given TIDs (skipping dead ones)."""
        for tid in tids:
            values = self._slots.get(tid.slot)
            if values is not None:
                yield StoredTuple(tid, values)

    def lookup(self, tids) -> list[tuple[TupleId, tuple]]:
        """``(tid, values)`` for the live ones among ``tids`` (what an
        index probe returned), with no per-row StoredTuple."""
        slots = self._slots
        return [(tid, values) for tid in tids
                if (values := slots.get(tid.slot)) is not None]

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:
        return f"HeapRelation({self.name!r}, {len(self)} tuples)"

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------

    def attach_index(self, index: Index) -> None:
        """Register a secondary index and bulk-load the current contents."""
        if index.relation != self.name:
            raise StorageError(
                f"index {index.name!r} targets relation "
                f"{index.relation!r}, not {self.name!r}")
        if index.name in self._indexes:
            raise StorageError(f"duplicate index name {index.name!r}")
        for stored in self.scan():
            index.insert(index.key_of(stored.values), stored.tid)
        self._indexes[index.name] = index

    def detach_index(self, name: str) -> Index:
        """Unregister and return a secondary index."""
        try:
            return self._indexes.pop(name)
        except KeyError:
            raise StorageError(f"no index named {name!r}") from None

    def indexes(self) -> tuple[Index, ...]:
        """All indexes currently attached, in attach order."""
        return tuple(self._indexes.values())

    def index_on(self, attribute: str, kind: str | None = None
                 ) -> Index | None:
        """An index on the given attribute (of the given kind), if any."""
        for index in self._indexes.values():
            if index.attribute != attribute:
                continue
            if kind is None or index.kind == kind:
                return index
        return None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _require(self, tid: TupleId) -> tuple:
        if tid.relation != self.name:
            raise StorageError(
                f"TID {tid} does not belong to relation {self.name!r}")
        try:
            return self._slots[tid.slot]
        except KeyError:
            raise StorageError(f"dangling TID {tid}") from None
