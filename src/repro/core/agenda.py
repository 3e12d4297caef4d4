"""Conflict resolution for the recognize-act cycle (paper Figure 1).

The *match* step is the discrimination network: a rule is eligible to run
when its P-node is non-empty.  The *conflict resolution* step here picks
one eligible rule: highest ``priority`` first (the ARL priority clause),
then most recent match (OPS5-style recency, via the P-node's insertion
stamp), then rule name for determinism.  The tie-break policy beyond
priority is our choice — the paper specifies only the priority clause —
and is recorded in DESIGN.md.

The agenda is a lazy heap.  A notification only marks the rule's name
pending, and so does a P-node that drains while its name is keyed (the
network reports it through :meth:`Agenda.drained`).  The next
:meth:`Agenda.select` keys each pending name by its live ``(priority,
stamp, name)``, drops — and counts stale — the ones whose rule is gone
or whose P-node is empty, and pushes the rest.  Every other keyed name
is then current by construction, so the top of the heap only has to
shed entries that a newer key superseded or a discard retired.  A name
is thus dropped and counted at the same selection as a scan over every
notified rule drops it.  Entries hold names and numbers only, never a
:class:`~repro.core.rules.CompiledRule`, so a removed rule is not kept
alive by an entry nobody has popped yet.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.core.rules import CompiledRule
from repro.observe import NULL_STATS


class _Descending(str):
    """A rule name that orders in reverse, so the min-heap's top holds
    the greatest name among equal (priority, stamp) keys."""

    __slots__ = ()

    def __lt__(self, other):
        return str.__gt__(self, other)


def _key(rule: CompiledRule, pnode) -> tuple:
    """A rule's heap key; the least key is the next to fire."""
    return (-rule.priority, -pnode.last_insert_stamp,
            _Descending(rule.name))


class Agenda:
    """Tracks which rules may be eligible and picks the next to fire."""

    #: engine counter registry (``agenda.*``); the owning manager replaces
    #: the shared disabled default with the Database's registry
    stats = NULL_STATS

    def __init__(self):
        #: names to validate at the next select, in arrival order
        self._pending: dict[str, None] = {}
        #: each keyed name's current heap entry; an entry that is not
        #: its name's current one is superseded and shed when popped
        self._keys: dict[str, tuple] = {}
        self._heap: list[tuple] = []

    def notify(self, rule: CompiledRule) -> None:
        """The network reports a rule gained a match."""
        self._pending[rule.name] = None

    def drained(self, rule_name: str) -> None:
        """The network reports a rule's P-node became empty."""
        if rule_name in self._keys:
            self._pending[rule_name] = None

    def discard(self, rule_name: str) -> None:
        self._pending.pop(rule_name, None)
        self._keys.pop(rule_name, None)

    def clear(self) -> None:
        self._pending.clear()
        self._keys.clear()
        self._heap.clear()

    def select(self, rules: dict[str, CompiledRule],
               pnode_of) -> CompiledRule | None:
        """Pick the next rule to fire, or None when nothing is eligible.

        ``pnode_of`` maps a rule name to its P-node; notifications whose
        rule is gone or whose P-node has drained (matches retracted by
        later tokens) are dropped here — eligibility always reflects
        current matches.  A keyed rule leaves ``rules`` only after a
        :meth:`discard`, and its P-node empties only with a
        :meth:`drained` report or a discard.
        """
        keys, heap = self._keys, self._heap
        stale = 0
        if self._pending:
            for name in self._pending:
                rule = rules.get(name)
                pnode = pnode_of(name) if rule is not None else None
                if not pnode:
                    keys.pop(name, None)
                    stale += 1
                    continue
                key = _key(rule, pnode)
                if keys.get(name) != key:
                    keys[name] = key
                    heappush(heap, key)
            self._pending.clear()
            if len(heap) > 2 * len(keys):
                heap[:] = keys.values()      # shed superseded entries
                heapify(heap)
        while heap and keys.get(heap[0][2]) is not heap[0]:
            heappop(heap)                    # superseded or discarded
        stats = self.stats
        if stats.enabled:
            counters = stats.counters
            counters["agenda.selections"] = \
                counters.get("agenda.selections", 0) + 1
            if stale:
                stats.bump("agenda.stale_dropped", stale)
        return rules[heap[0][2]] if heap else None

    def notified(self) -> list[str]:
        """The names that may be eligible: keyed ones, then pending."""
        keys = self._keys
        return [*keys, *(name for name in self._pending
                         if name not in keys)]

    def __len__(self) -> int:
        return len(self._keys.keys() | self._pending.keys())

    def __bool__(self) -> bool:
        return bool(self._pending or self._keys)
