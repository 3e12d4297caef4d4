"""Secondary indexes: hash (equality) and B-tree (range).

Both index kinds map a single attribute value to the set of
:class:`~repro.storage.tuples.TupleId` of tuples holding that value.
Null (``None``) and NaN keys are never indexed: ``insert`` and ``delete``
skip one and ``search`` of one returns nothing.  Under three-valued
logic no comparison with either is true, so no equality or range probe
may find them — and a B-tree could order NaN nowhere.

The B-tree is realised as a sorted ``(key, tid)`` list maintained with
``bisect`` — logarithmic search, linear insert.  For the in-memory data
sizes this engine targets that is the standard Python idiom and it keeps
range scans trivially correct; the interface (``search``, ``range_search``)
is what the planner depends on, not the node layout.
"""

from __future__ import annotations

import bisect
from typing import Iterator

from repro.errors import StorageError
from repro.storage.tuples import TupleId


class Index:
    """Base class for single-attribute secondary indexes."""

    #: "hash" or "btree"; used by the planner for access-path selection.
    kind: str = "abstract"

    def __init__(self, name: str, relation: str, attribute: str,
                 position: int):
        self.name = name
        self.relation = relation
        self.attribute = attribute
        self.position = position

    def key_of(self, values: tuple):
        """Extract this index's key from a full tuple of values."""
        return values[self.position]

    def insert(self, key, tid: TupleId) -> None:
        raise NotImplementedError

    def delete(self, key, tid: TupleId) -> None:
        raise NotImplementedError

    def search(self, key) -> Iterator[TupleId]:
        """All TIDs whose indexed attribute equals ``key``."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r} on "
                f"{self.relation}.{self.attribute})")


class HashIndex(Index):
    """Equality-only index backed by a dict of key -> TIDs.

    Each bucket is an insertion-ordered dict used as a set: a ``set``
    would iterate in hash order, and ``TupleId`` hashes a salted
    ``str``, so probe order — and with it rule firing order — would
    change with ``PYTHONHASHSEED``.
    """

    kind = "hash"

    def __init__(self, name: str, relation: str, attribute: str,
                 position: int):
        super().__init__(name, relation, attribute, position)
        self._buckets: dict[object, dict[TupleId, None]] = {}
        self._count = 0

    def insert(self, key, tid: TupleId) -> None:
        if key is None or key != key:
            return
        self._buckets.setdefault(key, {})[tid] = None
        self._count += 1

    def delete(self, key, tid: TupleId) -> None:
        if key is None or key != key:
            return
        bucket = self._buckets.get(key)
        if bucket is None or tid not in bucket:
            raise StorageError(
                f"index {self.name}: delete of absent entry {key!r}/{tid}")
        del bucket[tid]
        if not bucket:
            del self._buckets[key]
        self._count -= 1

    def search(self, key) -> Iterator[TupleId]:
        # no bucket holds a null or NaN key, so neither finds one
        return iter(self._buckets.get(key, ()))

    def __len__(self) -> int:
        return self._count

    def distinct_keys(self) -> int:
        """Number of distinct indexed key values (used by statistics)."""
        return len(self._buckets)


class BTreeIndex(Index):
    """Ordered index supporting equality and range probes.

    Keys must be mutually comparable (all numeric, or all strings); mixing
    incomparable key types in one index raises StorageError at insert.
    """

    kind = "btree"

    def __init__(self, name: str, relation: str, attribute: str,
                 position: int):
        super().__init__(name, relation, attribute, position)
        self._keys: list = []
        self._tids: list[TupleId] = []

    def insert(self, key, tid: TupleId) -> None:
        if key is None or key != key:
            return
        try:
            # Among duplicates order by tid slot for determinism.
            pos = bisect.bisect_right(self._keys, key)
        except TypeError as exc:
            raise StorageError(
                f"index {self.name}: key {key!r} not comparable with "
                f"existing keys") from exc
        self._keys.insert(pos, key)
        self._tids.insert(pos, tid)

    def delete(self, key, tid: TupleId) -> None:
        if key is None or key != key:
            return
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key, lo=lo)
        for i in range(lo, hi):
            if self._tids[i] == tid:
                del self._keys[i]
                del self._tids[i]
                return
        raise StorageError(
            f"index {self.name}: delete of absent entry {key!r}/{tid}")

    def search(self, key) -> Iterator[TupleId]:
        if key is None or key != key:
            return iter(())
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key, lo=lo)
        return iter(self._tids[lo:hi])

    def range_search(self, low=None, high=None, *,
                     low_inclusive: bool = True,
                     high_inclusive: bool = True) -> Iterator[TupleId]:
        """TIDs with key in the given (possibly half-open) interval.

        ``None`` bounds mean unbounded on that side.
        """
        if low is None:
            lo = 0
        elif low_inclusive:
            lo = bisect.bisect_left(self._keys, low)
        else:
            lo = bisect.bisect_right(self._keys, low)
        if high is None:
            hi = len(self._keys)
        elif high_inclusive:
            hi = bisect.bisect_right(self._keys, high)
        else:
            hi = bisect.bisect_left(self._keys, high)
        return iter(self._tids[lo:hi])

    def __len__(self) -> int:
        return len(self._keys)


def make_index(kind: str, name: str, relation: str, attribute: str,
               position: int) -> Index:
    """Factory used by the catalog's ``define index`` implementation."""
    kinds = {"hash": HashIndex, "btree": BTreeIndex}
    try:
        cls = kinds[kind.lower()]
    except KeyError:
        raise StorageError(
            f"unknown index kind {kind!r}; expected one of "
            f"{sorted(kinds)}") from None
    return cls(name, relation, attribute, position)
