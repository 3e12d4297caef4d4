"""The interval skip list (Hanson 1991).

A skip list whose nodes are the distinct interval endpoints and whose edges
and nodes carry *markers*: interval ``I`` marks edge ``(a, b)`` when the
open interval ``(a.key, b.key)`` lies inside ``I`` and the edge is on the
canonical "staircase" of highest such edges from ``I``'s left endpoint node
to its right endpoint node; a node additionally holds ``I`` in its
``eq_markers`` when ``I`` contains the node's key.  A stabbing query for
``K`` then simply walks the ordinary skip-list search path: every marker on
a traversed "drop" edge contains ``K``, and if the search lands exactly on
a node with key ``K`` that node's ``eq_markers`` is the complete answer.
The walk compares keys with native ``<``/``==``: an infinity sentinel
answers through its own methods, directly or reflected.  Like
every index of the engine, the list matches no NaN: ``stab(nan)`` is
empty, where the walk would otherwise collect every ``<``/``<=`` marker.

Marker *placement* follows Hanson's ``placeMarkers`` (ascend to the highest
contained edges, then descend to the right endpoint).  For marker
*maintenance* under endpoint-node insertion and deletion we use an
unmark/re-place strategy instead of Hanson's incremental
``adjustMarkersOnInsert``/``OnDelete``: the only intervals whose markers can
touch an edge spanning a key ``x`` are intervals *containing* ``x`` (any
marked edge's interior is inside the interval), and those are exactly the
result of a stabbing query for ``x`` — so before splicing a node in or out
we unmark that set and afterwards re-place it.  This yields the identical
marker layout the incremental algorithm maintains (placement is
deterministic given the node structure), with the same query cost; node
insertion pays O((overlap+1)·log n) instead of amortised O(log n), which
is immaterial at the rule counts the paper evaluates (25–200).
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.intervals.interval import Interval, key_eq, key_lt

_MAX_LEVEL = 32


class _Node:
    """A skip-list node for one distinct endpoint key."""

    __slots__ = ("key", "forward", "markers", "eq_markers", "owner_count")

    def __init__(self, key, level: int):
        self.key = key
        #: next node per level; len(forward) == node level
        self.forward: list[_Node | None] = [None] * level
        #: markers on the outgoing edge at each level
        self.markers: list[set[Interval]] = [set() for _ in range(level)]
        #: intervals containing this node's key
        self.eq_markers: set[Interval] = set()
        #: number of stored interval endpoints located at this key
        self.owner_count = 0

    @property
    def level(self) -> int:
        return len(self.forward)

    def __repr__(self) -> str:
        return f"_Node({self.key!r}, level={self.level})"


class IntervalSkipList:
    """Dynamic stabbing-query index over intervals.

    Intervals are :class:`~repro.intervals.interval.Interval` records;
    identical bounds with distinct payloads coexist.  The structure is the
    top level of Ariel's discrimination network: payloads are rule α-memory
    nodes and ``stab(v)`` finds every selection predicate satisfied by an
    attribute value ``v``.
    """

    def __init__(self, seed: int | None = None):
        self._rng = random.Random(seed)
        self._header = _Node(object(), _MAX_LEVEL)
        self._level = 1          # current highest level in use
        self._intervals: set[Interval] = set()
        self._node_count = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def insert(self, interval: Interval) -> None:
        """Add an interval to the index."""
        if interval in self._intervals:
            raise ValueError(f"interval already present: {interval}")
        left = self._ensure_node(interval.low)
        right = (left if key_eq(interval.high, interval.low)
                 else self._ensure_node(interval.high))
        left.owner_count += 1
        right.owner_count += 1
        self._place_markers(left, interval)
        self._intervals.add(interval)

    def remove(self, interval: Interval) -> None:
        """Remove a previously inserted interval."""
        if interval not in self._intervals:
            raise ValueError(f"interval not present: {interval}")
        self._intervals.remove(interval)
        left = self._find_node(interval.low)
        right = (left if key_eq(interval.high, interval.low)
                 else self._find_node(interval.high))
        self._remove_markers(left, interval)
        left.owner_count -= 1
        right.owner_count -= 1
        for node in (left, right):
            if node.owner_count == 0:
                self._delete_node(node)

    def stab(self, value) -> set[Interval]:
        """Every stored interval containing ``value`` (none for NaN).

        ``value`` must be an actual attribute value (not None and not an
        infinity sentinel).
        """
        if value is None:
            raise ValueError("cannot stab with a null value")
        if value != value:
            # NaN compares false to every key: the walk would collect
            # the markers of every `<`/`<=` interval it passes
            return set()
        return self._stab(value)

    def __contains__(self, interval: Interval) -> bool:
        return interval in self._intervals

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterable[Interval]:
        return iter(self._intervals)

    @property
    def node_count(self) -> int:
        """Number of distinct endpoint nodes (diagnostics/benchmarks)."""
        return self._node_count

    def marker_count(self) -> int:
        """Total markers stored on edges and nodes (space diagnostics)."""
        total = 0
        x = self._header.forward[0]
        while x is not None:
            total += len(x.eq_markers)
            total += sum(len(s) for s in x.markers)
            x = x.forward[0]
        return total

    def check_invariants(self) -> None:
        """Verify marker soundness; raises AssertionError on violation.

        Used by tests: every edge marker's interval must contain the open
        edge interval, every eq marker's interval must contain the node key,
        and keys must be strictly increasing along level 0.
        """
        x = self._header
        prev_key = None
        node = x.forward[0]
        while node is not None:
            if prev_key is not None:
                assert key_lt(prev_key, node.key), "keys out of order"
            prev_key = node.key
            for iv in node.eq_markers:
                assert iv.contains_value(node.key), (
                    f"eq marker {iv} does not contain {node.key!r}")
            for lvl in range(node.level):
                nxt = node.forward[lvl]
                for iv in node.markers[lvl]:
                    assert nxt is not None, "marker on edge to nothing"
                    assert iv.contains_open_interval(node.key, nxt.key), (
                        f"edge marker {iv} does not contain "
                        f"({node.key!r}, {nxt.key!r})")
            node = node.forward[0]

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------

    def _random_level(self) -> int:
        level = 1
        while level < _MAX_LEVEL and self._rng.random() < 0.5:
            level += 1
        return level

    def _find_node(self, key) -> _Node:
        x = self._header
        for lvl in range(self._level - 1, -1, -1):
            while (x.forward[lvl] is not None
                   and key_lt(x.forward[lvl].key, key)):
                x = x.forward[lvl]
        nxt = x.forward[0]
        if nxt is None or not key_eq(nxt.key, key):
            raise KeyError(f"no node with key {key!r}")
        return nxt

    def _predecessors(self, key) -> list[_Node]:
        """Per level, the rightmost node with key strictly below ``key``."""
        update: list[_Node] = [self._header] * _MAX_LEVEL
        x = self._header
        for lvl in range(self._level - 1, -1, -1):
            while (x.forward[lvl] is not None
                   and key_lt(x.forward[lvl].key, key)):
                x = x.forward[lvl]
            update[lvl] = x
        return update

    def _ensure_node(self, key) -> _Node:
        """Return the node for ``key``, creating it (and re-placing the
        markers of every interval containing ``key``) if necessary."""
        update = self._predecessors(key)
        candidate = update[0].forward[0]
        if candidate is not None and key_eq(candidate.key, key):
            return candidate
        affected = list(self._stab(key))
        for iv in affected:
            self._remove_markers(self._find_node(iv.low), iv)
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(key, level)
        for lvl in range(level):
            node.forward[lvl] = update[lvl].forward[lvl]
            update[lvl].forward[lvl] = node
        self._node_count += 1
        for iv in affected:
            self._place_markers(self._find_node(iv.low), iv)
        return node

    def _delete_node(self, node: _Node) -> None:
        """Unsplice an ownerless node, re-placing markers that crossed it."""
        affected = [iv for iv in node.eq_markers if iv in self._intervals]
        for iv in affected:
            self._remove_markers(self._find_node(iv.low), iv)
        update = self._predecessors(node.key)
        for lvl in range(node.level):
            # The predecessor's forward pointer at lvl must be this node.
            update[lvl].forward[lvl] = node.forward[lvl]
        while (self._level > 1
               and self._header.forward[self._level - 1] is None):
            self._level -= 1
        self._node_count -= 1
        for iv in affected:
            self._place_markers(self._find_node(iv.low), iv)

    def _stab(self, key) -> set[Interval]:
        """The stabbing walk, for a value or a sentinel endpoint key.

        Node keys are compared natively as the left operand: a sentinel
        node key answers through its own ``__lt__``/``__eq__``, and a
        sentinel ``key`` through the reflected ones.
        """
        result: set[Interval] = set()
        x = self._header
        for lvl in range(self._level - 1, -1, -1):
            nxt = x.forward[lvl]
            while nxt is not None and nxt.key < key:
                x = nxt
                nxt = x.forward[lvl]
            if nxt is not None and nxt.key == key:
                # Landed exactly on a node: its eq_markers is the complete
                # set of intervals containing the key.
                result |= nxt.eq_markers
                return result
            # Drop edge (x, nxt) at lvl: x.key < key < nxt.key, so every
            # marker on the edge contains key.
            result |= x.markers[lvl]
        return result

    # ------------------------------------------------------------------
    # marker placement (Hanson's placeMarkers, open-edge containment)
    # ------------------------------------------------------------------

    def _place_markers(self, left: _Node, iv: Interval) -> None:
        self._walk_staircase(left, iv, add=True)

    def _remove_markers(self, left: _Node, iv: Interval) -> None:
        self._walk_staircase(left, iv, add=False)

    def _walk_staircase(self, left: _Node, iv: Interval, add: bool) -> None:
        """Mark (or unmark) the canonical staircase of ``iv``.

        The walk is deterministic given the node structure, so removal
        retraces placement exactly.
        """
        x = left
        self._mark_node(x, iv, add)
        if key_eq(iv.low, iv.high):
            return                       # point interval: eq marker only
        i = 0
        # Ascend: take the highest outgoing edge contained in iv.
        while (x.forward[i] is not None
               and iv.contains_open_interval(x.key, x.forward[i].key)
               and not key_eq(x.key, iv.high)):
            while (i < x.level - 1
                   and x.forward[i + 1] is not None
                   and iv.contains_open_interval(x.key,
                                                 x.forward[i + 1].key)):
                i += 1
            self._mark_edge(x, i, iv, add)
            x = x.forward[i]
            self._mark_node(x, iv, add)
        # Descend: drop to edges that stay inside iv until the right end.
        while not key_eq(x.key, iv.high):
            while i > 0 and (x.forward[i] is None
                             or not iv.contains_open_interval(
                                 x.key, x.forward[i].key)):
                i -= 1
            self._mark_edge(x, i, iv, add)
            x = x.forward[i]
            self._mark_node(x, iv, add)

    def _mark_node(self, node: _Node, iv: Interval, add: bool) -> None:
        if iv.contains_value(node.key):
            if add:
                node.eq_markers.add(iv)
            else:
                node.eq_markers.discard(iv)

    @staticmethod
    def _mark_edge(node: _Node, lvl: int, iv: Interval, add: bool) -> None:
        if add:
            node.markers[lvl].add(iv)
        else:
            node.markers[lvl].discard(iv)
