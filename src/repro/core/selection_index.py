"""The top-level selection predicate index (paper section 4.1).

"Ariel uses a special index optimized for testing selection conditions as
the top layer in its discrimination network."  Each α-memory's selection
predicate contributes its *anchor* — the tightest single-attribute
interval constraint (point, open or closed interval) — to an interval
index on that (relation, attribute); predicates with no indexable
conjunct go on a per-relation residual list.  Probing with a tuple's
values returns every memory whose anchor the tuple satisfies, and the
caller then verifies each candidate's residual predicate.

Dispatch is two-level: a ``relation -> {attribute -> interval index}``
map, so a probe touches only the indexes of the token's own relation
(never scanning the system-wide index list), and the common
one-attribute-per-relation case runs with no dedup bookkeeping at all —
a target is registered under exactly one anchor, so a single stab can
never produce duplicates.

Every routed token probes the index once, alone or inside a Δ-set, and
reads each candidate straight off the interval index's ``stab`` result.
A null or NaN value satisfies no anchor (it compares false to every
bound): a probe skips a null attribute's interval index outright, and
every interval index answers a NaN stab empty.

The interval index defaults to an interval skip list with a fixed seed,
so one rule script builds the same node levels, and costs the same stab
work, on every run; the IBS tree or the naive
:class:`LinearIntervalIndex` can be substituted (the ``ablate-isl`` and
``scale`` benchmarks do exactly that).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.intervals.interval import Interval
from repro.intervals.skiplist import IntervalSkipList
from repro.lang.predicates import AttrInterval


class LinearIntervalIndex:
    """Baseline 'no discrimination network' index: a flat list of
    intervals scanned on every probe.  Exists so the benchmarks can show
    what the interval skip list buys (paper §6: techniques without a
    discrimination network "simply cannot compete")."""

    def __init__(self):
        self._intervals: list[Interval] = []

    def insert(self, interval: Interval) -> None:
        if interval in self._intervals:
            raise ValueError(f"interval already present: {interval}")
        self._intervals.append(interval)

    def remove(self, interval: Interval) -> None:
        self._intervals.remove(interval)

    def stab(self, value) -> set[Interval]:
        return {iv for iv in self._intervals if iv.contains_value(value)}

    def __len__(self) -> int:
        return len(self._intervals)


#: the default interval skip list's level seed
SKIP_LIST_SEED = 0


def seeded_skip_list() -> IntervalSkipList:
    """The default interval index: a skip list whose node levels depend
    only on the order its endpoints arrive in."""
    return IntervalSkipList(seed=SKIP_LIST_SEED)


class _AttrIndex:
    """One relation attribute's interval index plus its tuple position."""

    __slots__ = ("index", "position")

    def __init__(self, index, position: int):
        self.index = index
        self.position = position


class SelectionIndex:
    """Routes tuple values to the α-memories whose anchors they satisfy."""

    def __init__(self, index_factory: Callable[[], object] | None = None):
        self._factory = index_factory or seeded_skip_list
        # relation -> {attribute -> _AttrIndex}
        self._relations: dict[str, dict[str, _AttrIndex]] = {}
        # relation -> unanchored targets (always candidates)
        self._unanchored: dict[str, list] = {}
        # target -> how it was registered, for removal
        self._registered: dict[int, tuple] = {}

    # ------------------------------------------------------------------

    def add(self, relation: str, anchor: AttrInterval | None,
            target) -> None:
        """Register a target (an α-memory) under its anchor interval, or
        on the relation's residual list when it has none."""
        key = id(target)
        if key in self._registered:
            raise ValueError(f"target already registered: {target!r}")
        if anchor is None:
            self._unanchored.setdefault(relation, []).append(target)
            self._registered[key] = (relation, None, None, target)
            return
        attr_indexes = self._relations.setdefault(relation, {})
        slot = attr_indexes.get(anchor.attr)
        if slot is None:
            slot = _AttrIndex(self._factory(), anchor.position)
            attr_indexes[anchor.attr] = slot
        interval = Interval(anchor.interval.low, anchor.interval.high,
                            anchor.interval.low_closed,
                            anchor.interval.high_closed,
                            payload=_TargetRef(target))
        slot.index.insert(interval)
        self._registered[key] = (relation, anchor.attr, interval, target)

    def remove(self, target) -> None:
        """Unregister a target, dropping the interval index and
        unanchored list it leaves empty (unwatched again)."""
        key = id(target)
        try:
            relation, attr, interval, kept = self._registered.pop(key)
        except KeyError:
            raise ValueError(f"target not registered: {target!r}") \
                from None
        if attr is None:
            unanchored = self._unanchored[relation]
            unanchored.remove(kept)
            if not unanchored:
                del self._unanchored[relation]
            return
        attr_indexes = self._relations[relation]
        slot = attr_indexes[attr]
        slot.index.remove(interval)
        if not len(slot.index):
            del attr_indexes[attr]
            if not attr_indexes:
                del self._relations[relation]

    def slots(self, relation: str) -> tuple:
        """The relation's anchor slots as ``(attribute position, the
        interval index's stab)`` pairs, for a compiled token router:
        every target a probe returns is a payload of one of these stabs
        or on the relation's unanchored list."""
        return tuple((slot.position, slot.index.stab)
                     for slot in self._relations.get(relation, {}).values())

    def watches(self, relation: str) -> bool:
        """Whether any target is registered on ``relation``."""
        return relation in self._relations or relation in self._unanchored

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------

    def probe(self, relation: str, values: tuple) -> list:
        """Every registered target whose anchor accepts ``values``, plus
        the relation's unanchored targets.  Null and NaN attribute
        values never satisfy an anchor (SQL comparison semantics): a
        null is not stabbed, and a NaN stab is empty."""
        attr_indexes = self._relations.get(relation)
        unanchored = self._unanchored.get(relation)
        if not attr_indexes:
            return list(unanchored) if unanchored else []
        # A target is registered under exactly one anchor, so stabs of
        # distinct attribute indexes can never yield the same target and
        # no dedup set is needed.
        out: list = []
        for slot in attr_indexes.values():
            value = values[slot.position]
            if value is None:
                continue
            for interval in slot.index.stab(value):
                out.append(interval.payload.target)
        if unanchored:
            out.extend(unanchored)
        return out

    def probe_many(self, items: Iterable[tuple[str, tuple]]) -> list[list]:
        """One :meth:`probe` per ``(relation, values)`` pair, in order."""
        return [self.probe(relation, values) for relation, values in items]

    # ------------------------------------------------------------------

    def anchored_count(self) -> int:
        return sum(len(slot.index)
                   for attr_indexes in self._relations.values()
                   for slot in attr_indexes.values())

    def unanchored_count(self) -> int:
        return sum(len(v) for v in self._unanchored.values())

    def __len__(self) -> int:
        return len(self._registered)


class _TargetRef:
    """Identity-hashable wrapper so unhashable targets can ride inside
    frozen Interval payloads."""

    __slots__ = ("target",)

    def __init__(self, target):
        self.target = target

    def __hash__(self) -> int:
        return id(self.target)

    def __eq__(self, other) -> bool:
        return isinstance(other, _TargetRef) and other.target is self.target
