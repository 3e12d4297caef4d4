"""P-nodes: the per-rule relations holding data matching rule conditions.

"In Ariel, data matching the rule condition is stored in a temporary
relation called the P-node" (paper §2.2.3).  Each entry binds every tuple
variable of the rule to a concrete tuple — its TID, its current values,
and (for transition/replace-bound variables) the values it had at the
beginning of the transition, which is what lets rule actions reference
``previous var.attr`` and lets ``replace'``/``delete'`` locate their
targets by TID (paper §5.1).
"""

from __future__ import annotations

from repro.core.alpha import MemoryEntry
from repro.lang.expr import Bindings
from repro.observe import NULL_STATS
from repro.storage.tuples import TupleId


class Match:
    """One P-node entry: a full binding of the rule's tuple variables."""

    __slots__ = ("bindings", "__weakref__")

    def __init__(self, bindings: tuple[tuple[str, MemoryEntry], ...]):
        #: ((var, entry), ...) sorted by variable name
        self.bindings = bindings

    def __eq__(self, other) -> bool:
        if other.__class__ is not Match:
            return NotImplemented
        return self.bindings == other.bindings

    def __hash__(self) -> int:
        return hash(self.bindings)

    def __repr__(self) -> str:
        return f"Match(bindings={self.bindings!r})"

    @classmethod
    def of(cls, parts: dict[str, MemoryEntry]) -> "Match":
        items = list(parts.items())
        if len(items) > 1:
            items.sort(key=_first)
        return cls(tuple(items))

    def entry(self, var: str) -> MemoryEntry:
        for name, entry in self.bindings:
            if name == var:
                return entry
        raise KeyError(var)

    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.bindings)

    def involves_tid(self, tid: TupleId) -> bool:
        return any(entry.tid == tid for _, entry in self.bindings)

    def extend(self, outer: Bindings) -> Bindings:
        """Bind every variable of this match on top of ``outer``."""
        bound = outer.child()
        for var, entry in self.bindings:
            bound.current[var] = entry.values
            bound.tids[var] = entry.tid
            if entry.old_values is not None:
                bound.previous[var] = entry.old_values
        return bound


def _first(pair):
    return pair[0]



class PNode:
    """The temporary relation of matches for one rule."""

    #: engine counter registry (``pnode.*``); the owning network replaces
    #: the shared disabled default with the Database's registry
    stats = NULL_STATS

    def __init__(self, rule_name: str, variables: list[str]):
        self.rule_name = rule_name
        self.variables = list(variables)
        self._matches: dict[tuple, Match] = {}
        #: monotonically increasing stamp of the last insertion; the
        #: agenda uses it for OPS5-style recency ordering
        self.last_insert_stamp = 0

    # ------------------------------------------------------------------

    def insert(self, match: Match, stamp: int = 0) -> bool:
        """Add a match; returns False if an identical binding existed.

        Callers own the ``pnode.inserts`` counter (routing aggregates it
        per routing call); this method stays bump-free so the hot path
        pays nothing per match.
        """
        return self.add(tuple([entry.tid for _, entry in match.bindings]),
                        match, stamp)

    def add(self, key: tuple, match: Match, stamp: int) -> bool:
        """:meth:`insert` with the match's key — its tuple ids in
        binding order — already computed (a compiled seek knows them)."""
        existing = self._matches.get(key)
        if existing is not None and existing == match:
            return False
        self._matches[key] = match
        if stamp > self.last_insert_stamp:
            self.last_insert_stamp = stamp
        return True

    def delete_by_tid(self, tid: TupleId) -> int:
        """Remove every match involving a tuple id (a − or Δ− arrived for
        it); returns the number removed."""
        doomed = [key for key in self._matches if tid in key]
        for key in doomed:
            del self._matches[key]
        if doomed and self.stats.enabled:
            self.stats.bump("pnode.deletes", len(doomed))
        return len(doomed)

    def matches(self) -> list[Match]:
        return list(self._matches.values())

    def snapshot(self) -> dict:
        """The current matches, as an opaque value for :meth:`restore`."""
        return dict(self._matches)

    def restore(self, snap: dict) -> None:
        """Reset the P-node to a :meth:`snapshot` state (transaction
        abort: token replay restores α-memories exactly, but cannot know
        which matches had already been consumed by firings before the
        transaction began — the snapshot can)."""
        self._matches = dict(snap)

    def take_all(self) -> list[Match]:
        """Consume the whole P-node (set-oriented rule firing)."""
        out = list(self._matches.values())
        self._matches.clear()
        return out

    def clear(self) -> None:
        self._matches.clear()

    def __len__(self) -> int:
        return len(self._matches)

    def __bool__(self) -> bool:
        return bool(self._matches)

    def __repr__(self) -> str:
        return f"PNode({self.rule_name}, {len(self)} matches)"
