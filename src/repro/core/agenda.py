"""Conflict resolution for the recognize-act cycle (paper Figure 1).

The *match* step is the discrimination network: a rule is eligible to run
when its P-node is non-empty.  The *conflict resolution* step here picks
one eligible rule: highest ``priority`` first (the ARL priority clause),
then most recent match (OPS5-style recency, via the P-node's insertion
stamp), then rule name for determinism.  The tie-break policy beyond
priority is our choice — the paper specifies only the priority clause —
and is recorded in DESIGN.md.
"""

from __future__ import annotations

from repro.core.pnode import PNode
from repro.core.rules import CompiledRule
from repro.observe import NULL_STATS


class Agenda:
    """Tracks which rules may be eligible and picks the next to fire."""

    #: engine counter registry (``agenda.*``); the owning manager replaces
    #: the shared disabled default with the Database's registry
    stats = NULL_STATS

    def __init__(self):
        # Insertion-ordered (dict, not set): select() already breaks
        # ties with a total order, but iterating notifications in
        # arrival order makes every agenda walk — including diagnostic
        # inspection — reproducible run-to-run.
        self._notified: dict[str, None] = {}

    def notify(self, rule: CompiledRule) -> None:
        """The network reports a rule gained a match."""
        self._notified[rule.name] = None

    def discard(self, rule_name: str) -> None:
        self._notified.pop(rule_name, None)

    def clear(self) -> None:
        self._notified.clear()

    def select(self, rules: dict[str, CompiledRule],
               pnode_of) -> CompiledRule | None:
        """Pick the next rule to fire, or None when nothing is eligible.

        ``pnode_of`` maps a rule name to its P-node; notifications whose
        P-node has drained (matches retracted by later tokens) are
        dropped here — eligibility always reflects current matches.
        """
        best: CompiledRule | None = None
        best_key: tuple | None = None
        stale: list[str] = []
        for name in self._notified:
            rule = rules.get(name)
            if rule is None:
                stale.append(name)
                continue
            pnode: PNode = pnode_of(name)
            if not pnode:
                stale.append(name)
                continue
            key = (rule.priority, pnode.last_insert_stamp, rule.name)
            if best_key is None or key > best_key:
                best, best_key = rule, key
        for name in stale:
            self._notified.pop(name, None)
        if self.stats.enabled:
            self.stats.bump("agenda.selections")
            if stale:
                self.stats.bump("agenda.stale_dropped", len(stale))
        return best

    def __len__(self) -> int:
        return len(self._notified)
