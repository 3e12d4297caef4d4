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

The network's set-oriented token propagation calls
:meth:`SelectionIndex.probe` with a batch-owned ``stab_cache`` that
memoizes attribute-value stabs across the batch, and caches whole probe
results by the tuple's anchored values (what :meth:`anchor_key`
projects).  :meth:`probe_many`, a self-contained batch form, is not on
that path.

The interval index defaults to the interval skip list; the IBS tree or
the naive :class:`LinearIntervalIndex` can be substituted (the
``ablate-isl`` and ``scale`` benchmarks do exactly that).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.intervals.interval import Interval
from repro.intervals.skiplist import IntervalSkipList
from repro.lang.predicates import AttrInterval
from repro.observe import NULL_STATS


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

    def stab_payloads(self, value) -> set[Hashable]:
        return {iv.payload for iv in self._intervals
                if iv.contains_value(value)}

    def __len__(self) -> int:
        return len(self._intervals)


class _AttrIndex:
    """One relation attribute's interval index plus its tuple position."""

    __slots__ = ("index", "position")

    def __init__(self, index, position: int):
        self.index = index
        self.position = position


class SelectionIndex:
    """Routes tuple values to the α-memories whose anchors they satisfy."""

    #: engine counter registry (``selection.*``); the owning network
    #: replaces the shared disabled default with the Database's registry
    stats = NULL_STATS

    def __init__(self, index_factory: Callable[[], object] | None = None):
        self._factory = index_factory or IntervalSkipList
        # relation -> {attribute -> _AttrIndex}
        self._relations: dict[str, dict[str, _AttrIndex]] = {}
        #: relation -> anchored tuple positions.  Read-only for callers;
        #: the batched token path reads it directly to build anchor keys
        #: without a method call per token.
        self.anchor_positions: dict[str, tuple[int, ...]] = {}
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
            self.anchor_positions[relation] = tuple(
                s.position for s in attr_indexes.values())
        interval = Interval(anchor.interval.low, anchor.interval.high,
                            anchor.interval.low_closed,
                            anchor.interval.high_closed,
                            payload=_TargetRef(target))
        slot.index.insert(interval)
        self._registered[key] = (relation, anchor.attr, interval, target)

    def remove(self, target) -> None:
        """Unregister a target, dropping the interval index, anchor
        positions and unanchored list it leaves empty (unwatched again)."""
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
            positions = tuple(s.position for s in attr_indexes.values())
            if positions:
                self.anchor_positions[relation] = positions
            else:
                del self._relations[relation]
                del self.anchor_positions[relation]

    def watches(self, relation: str) -> bool:
        """Whether any target is registered on ``relation``."""
        return relation in self._relations or relation in self._unanchored

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------

    def probe(self, relation: str, values: tuple,
              stab_cache: dict | None = None) -> list:
        """Every registered target whose anchor accepts ``values``, plus
        the relation's unanchored targets.  Null attribute values never
        satisfy an anchor (SQL comparison semantics).

        ``stab_cache`` (a plain dict owned by the caller) memoizes
        attribute-value stabs across probes of one batch — tuples that
        repeat an attribute value skip the interval-index walk entirely.
        """
        return self._probe(relation, values, stab_cache)

    def anchor_key(self, relation: str, values: tuple) -> tuple:
        """The projection of ``values`` onto the relation's anchored
        attribute positions — everything a probe's result can depend on.
        Two tuples with equal anchor keys get identical candidate lists,
        which is what makes batch-level probe caching effective even when
        every tuple carries a unique key column.
        """
        positions = self.anchor_positions.get(relation)
        if not positions:
            return ()
        if len(positions) == 1:
            return (values[positions[0]],)
        return tuple(values[p] for p in positions)

    def probe_many(self, items: Iterable[tuple[str, tuple]]) -> list[list]:
        """Probe a batch of ``(relation, values)`` pairs.

        Returns one candidate list per item, in order.  Repeated probes
        are answered from a batch-local cache, and individual attribute
        stabs are memoized across probes that share a value — the
        amortisation the set-oriented token path relies on.  Callers must
        not mutate the returned lists (repeats share them).
        """
        probe_cache: dict[tuple[str, tuple], list] = {}
        stab_cache: dict[tuple[int, object], list] = {}
        out: list[list] = []
        for relation, values in items:
            key = (relation, self.anchor_key(relation, values))
            got = probe_cache.get(key)
            if got is None:
                got = probe_cache[key] = self._probe(relation, values,
                                                     stab_cache)
            out.append(got)
        return out

    def _probe(self, relation: str, values: tuple,
               stab_cache: dict | None) -> list:
        stats = self.stats
        if stats.enabled:
            counters = stats.counters
            counters["selection.probes"] = \
                counters.get("selection.probes", 0) + 1
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
            if stab_cache is None:
                refs = slot.index.stab_payloads(value)
            else:
                cache_key = (id(slot.index), value)
                refs = stab_cache.get(cache_key)
                if refs is None:
                    refs = stab_cache[cache_key] = \
                        slot.index.stab_payloads(value)
                elif stats.enabled:
                    counters = stats.counters
                    counters["selection.stab_memo_hits"] = \
                        counters.get("selection.stab_memo_hits", 0) + 1
            for ref in refs:
                out.append(ref.target)
        if unanchored:
            out.extend(unanchored)
        return out

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
