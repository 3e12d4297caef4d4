"""Tuple identifiers and stored-tuple records.

A :class:`TupleId` plays the role of EXODUS's persistent object identifier
in the paper: Ariel's ``replace'`` and ``delete'`` commands locate the
tuples to update "by using tuple identifiers that are part of tuples in the
P-node, rather than by performing a scan" (paper section 5.1).  TIDs are
stable for the lifetime of a tuple: ``replace`` updates a tuple in place
and keeps its TID.

A :class:`TupleId` is a named tuple (built and hashed in C; its hash is
that of ``(relation, slot)``, as the frozen dataclass's was).
:class:`StoredTuple` is not: its ``__getitem__`` indexes the values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class TupleId(NamedTuple):
    """Stable identifier of a stored tuple: (relation name, slot number)."""

    relation: str
    slot: int

    def __str__(self) -> str:
        return f"{self.relation}:{self.slot}"


@dataclass(frozen=True, slots=True)
class StoredTuple:
    """A tuple as returned by scans: its identity plus its values.

    ``values`` is a plain tuple ordered per the relation's schema.  The
    record is immutable; updates go through the owning
    :class:`~repro.storage.heap.HeapRelation`.
    """

    tid: TupleId
    values: tuple

    def __getitem__(self, position: int):
        return self.values[position]

    def __len__(self) -> int:
        return len(self.values)
