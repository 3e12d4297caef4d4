"""The interval binary search tree (IBS tree, Hanson & Chaabouni 1990).

A binary search tree over the distinct interval endpoints where markers
hang off the *child slots* of nodes: interval ``I`` marks the left (right)
slot of node ``n`` when ``I`` fully contains the open key range of that
slot, and marks ``n`` itself (an *eq marker*) when ``I`` contains
``n.key``.  A stabbing query for ``K`` walks the ordinary BST search path,
collecting the markers of every slot it descends through plus the eq
markers of an exactly-matching node.  Soundness: a slot on the search path
has ``K`` in its range, so every marker there contains ``K``.
Completeness: an interval containing ``K`` either span-marked some slot on
``K``'s search path or recursed alongside it down to an equal node or to
an empty slot — and an empty slot intersecting an interval whose endpoints
are tree keys is always *fully* covered, hence marked.

Placement decisions depend only on slot key ranges, and ranges of existing
nodes never change: we do not rotate, and endpoint removal tombstones the
node (``owner_count``).  Balance is kept scapegoat-style — when an insert
lands too deep, or tombstones outnumber half the live nodes, the whole
tree is rebuilt perfectly balanced and every interval re-placed.  This
replaces Hanson & Chaabouni's rotation-with-marker-maintenance with a
simpler amortised scheme; queries see the identical marker invariants.

The paper notes the interval skip list "is much easier to implement than
the IBS tree and performs as well" — implementing both lets the
``ablate-isl`` benchmark check that claim.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.intervals.interval import Interval, key_eq, key_lt


class _Node:
    """A BST node for one distinct endpoint key."""

    __slots__ = ("key", "left", "right", "left_span", "right_span",
                 "eq_markers", "owner_count")

    def __init__(self, key):
        self.key = key
        self.left: _Node | None = None
        self.right: _Node | None = None
        #: intervals fully covering the open range of the left child slot
        self.left_span: set[Interval] = set()
        #: intervals fully covering the open range of the right child slot
        self.right_span: set[Interval] = set()
        #: intervals containing this node's key (placed when not covered
        #: by a slot marker above)
        self.eq_markers: set[Interval] = set()
        #: number of live interval endpoints at this key (0 = tombstone)
        self.owner_count = 0


class IBSTree:
    """Dynamic stabbing-query index over intervals (IBS-tree scheme)."""

    #: rebuild when an insert descends deeper than _DEPTH_FACTOR*log2(n)+4
    _DEPTH_FACTOR = 2.0

    def __init__(self):
        self._root: _Node | None = None
        self._intervals: set[Interval] = set()
        self._node_count = 0        # live + tombstoned
        self._dead_count = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def insert(self, interval: Interval) -> None:
        """Add an interval to the index."""
        if interval in self._intervals:
            raise ValueError(f"interval already present: {interval}")
        self._ensure_key(interval.low)
        self._bump_owner(interval.low, +1)
        self._ensure_key(interval.high)
        self._bump_owner(interval.high, +1)
        self._place(self._root, None, None, interval, add=True)
        self._intervals.add(interval)

    def remove(self, interval: Interval) -> None:
        """Remove a previously inserted interval."""
        if interval not in self._intervals:
            raise ValueError(f"interval not present: {interval}")
        self._place(self._root, None, None, interval, add=False)
        self._intervals.remove(interval)
        self._bump_owner(interval.low, -1)
        self._bump_owner(interval.high, -1)
        live = self._node_count - self._dead_count
        if self._dead_count > max(4, live):
            self._rebuild()

    def stab(self, value) -> set[Interval]:
        """Every stored interval containing ``value`` (none for NaN)."""
        if value is None:
            raise ValueError("cannot stab with a null value")
        if value != value:
            return set()
        result: set[Interval] = set()
        node = self._root
        while node is not None:
            if key_eq(value, node.key):
                result |= node.eq_markers
                return result
            if key_lt(value, node.key):
                result |= node.left_span
                node = node.left
            else:
                result |= node.right_span
                node = node.right
        return result

    def __contains__(self, interval: Interval) -> bool:
        return interval in self._intervals

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterable[Interval]:
        return iter(self._intervals)

    @property
    def node_count(self) -> int:
        """Number of BST nodes, including tombstones (diagnostics)."""
        return self._node_count

    def marker_count(self) -> int:
        """Total markers stored in the tree (space diagnostics)."""
        total = 0
        stack = [self._root] if self._root else []
        while stack:
            node = stack.pop()
            total += (len(node.left_span) + len(node.right_span)
                      + len(node.eq_markers))
            if node.left:
                stack.append(node.left)
            if node.right:
                stack.append(node.right)
        return total

    def height(self) -> int:
        """Tree height (diagnostics; rebuilds keep it O(log n))."""
        def depth(node):
            if node is None:
                return 0
            return 1 + max(depth(node.left), depth(node.right))
        return depth(self._root)

    # ------------------------------------------------------------------
    # placement / removal (symmetric retrace; decisions are range-based)
    # ------------------------------------------------------------------

    def _place(self, node: _Node | None, low, high, iv: Interval,
               add: bool) -> None:
        """Mark (or unmark) ``iv`` below ``node``, whose open key range is
        ``(low, high)`` with ``None`` meaning unbounded."""
        if node is None:
            return
        if iv.contains_value(node.key):
            self._mark(node.eq_markers, iv, add)
        # Left slot: open range (low, node.key).
        if not self._slot_disjoint(low, node.key, iv):
            if self._slot_covered(low, node.key, iv):
                self._mark(node.left_span, iv, add)
            else:
                self._place(node.left, low, node.key, iv, add)
        # Right slot: open range (node.key, high).
        if not self._slot_disjoint(node.key, high, iv):
            if self._slot_covered(node.key, high, iv):
                self._mark(node.right_span, iv, add)
            else:
                self._place(node.right, node.key, high, iv, add)

    @staticmethod
    def _mark(markers: set[Interval], iv: Interval, add: bool) -> None:
        if add:
            markers.add(iv)
        else:
            markers.discard(iv)

    @staticmethod
    def _slot_disjoint(low, high, iv: Interval) -> bool:
        """True if the open slot range (low, high) cannot meet ``iv``."""
        if high is not None and not key_lt(iv.low, high):
            return True
        if low is not None and not key_lt(low, iv.high):
            return True
        return False

    @staticmethod
    def _slot_covered(low, high, iv: Interval) -> bool:
        """True if ``iv`` contains the whole open slot range (low, high)."""
        if low is None or high is None:
            return False
        return iv.contains_open_interval(low, high)

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------

    def _ensure_key(self, key) -> None:
        if self._root is None:
            self._root = _Node(key)
            self._node_count = 1
            return
        node = self._root
        depth = 1
        while True:
            if key_eq(key, node.key):
                return
            depth += 1
            if key_lt(key, node.key):
                if node.left is None:
                    node.left = _Node(key)
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = _Node(key)
                    break
                node = node.right
        self._node_count += 1
        limit = self._DEPTH_FACTOR * math.log2(self._node_count + 1) + 4
        if depth > limit:
            self._rebuild(extra_key=key)

    def _find(self, key) -> _Node:
        node = self._root
        while node is not None:
            if key_eq(key, node.key):
                return node
            node = node.left if key_lt(key, node.key) else node.right
        raise KeyError(f"no node with key {key!r}")

    def _bump_owner(self, key, delta: int) -> None:
        node = self._find(key)
        was_dead = node.owner_count == 0
        node.owner_count += delta
        if node.owner_count == 0 and not was_dead:
            self._dead_count += 1
        elif was_dead and node.owner_count > 0:
            self._dead_count -= 1

    def _rebuild(self, extra_key=None) -> None:
        """Rebuild perfectly balanced over live endpoint keys and re-place
        every stored interval."""
        stack = [self._root] if self._root else []
        live_nodes = []
        while stack:
            node = stack.pop()
            if node.owner_count > 0 or (extra_key is not None
                                        and key_eq(node.key, extra_key)):
                live_nodes.append(node)
            if node.left:
                stack.append(node.left)
            if node.right:
                stack.append(node.right)
        # sentinel keys order themselves, reflected or not
        live_nodes.sort(key=lambda n: n.key)
        counts = [n.owner_count for n in live_nodes]
        keys = [n.key for n in live_nodes]

        def build(lo: int, hi: int) -> _Node | None:
            if lo >= hi:
                return None
            mid = (lo + hi) // 2
            node = _Node(keys[mid])
            node.owner_count = counts[mid]
            node.left = build(lo, mid)
            node.right = build(mid + 1, hi)
            return node

        self._root = build(0, len(keys))
        self._node_count = len(keys)
        self._dead_count = sum(1 for c in counts if c == 0)
        for iv in self._intervals:
            self._place(self._root, None, None, iv, add=True)
