"""Token routing, compiled when a memory is registered (paper Figure 5).

A discrimination network keeps, per relation and token kind, one
:class:`Router`: the relation's anchor slots in the selection index and,
for every memory the kind acts on, a handler specialised to that
memory's Figure-5 verdict (:func:`~repro.core.alpha.verdict`) — its
event gate, residual test, dirty mark and join step are decided by
:func:`compile_handlers` once, so routing a token is one stab per anchor
slot and one call per handler reached.  The network recompiles a
relation's routers whenever a memory on it is registered or
unregistered (rule activation, removal, a §8 storage swap), never on
the token path.

:class:`BatchState` is the heap-state overlay a Δ-set batch keeps for
virtual α-memories (see :meth:`~repro.core.network
.DiscriminationNetwork.process_tokens`).
"""

from __future__ import annotations

import functools
from typing import Sequence

from repro.core.alpha import DELETE, MemoryEntry, verdict
from repro.core.pnode import Match
from repro.core.rules import VariableSpec
from repro.core.tokens import Token, TokenKind
from repro.lang.ast_nodes import EventKind


def compile_handlers(network, memory) -> dict:
    """``{kind: (handler, needs_dirty)}`` for every token kind the
    memory acts on: each handler runs the memory's verdict for that
    kind on one token.  ``needs_dirty`` marks a retraction that can
    only matter while some rule is dirty (see :meth:`~repro.core
    .network.DiscriminationNetwork.routes`)."""
    spec = memory.spec
    out = {}
    for kind in TokenKind:
        action = verdict(spec, kind)
        if action is None:
            continue
        if action is DELETE:
            out[kind] = (_delete_handler(network, memory),
                         not _retracts_while_clean(spec))
        else:
            out[kind] = (_insert_handler(network, memory, action), False)
    return out


def _insert_handler(network, memory, action):
    """An insertion verdict at one memory: the event gate, the residual
    test, the dirty mark, then the P-node (a simple memory) or the
    network's join step."""
    rule, spec = memory.rule, memory.spec
    keeps_old, gate = action
    accepts = spec.residual_matches if spec.residual is not None \
        else None
    dirty = network._dirty if rule.has_dynamic_variable else None
    name = rule.name
    if not spec.is_simple:
        join = network._join_step(rule, memory)
        store = None if memory.is_virtual else memory.insert

        def insert(token):
            if gate is not None and not gate(token.event):
                return
            values = token.values
            old = token.old_values if keeps_old else None
            if accepts is not None and not accepts(values, old):
                return
            if dirty is not None:
                # registered before the memory is touched, so a
                # failure further down is still flushed
                dirty[name] = rule
            entry = _new_entry((token.tid, values, old))
            if store is None or store(entry):  # else already held
                join(entry, token)
        return insert
    # a simple memory passes matching data straight to the P-node
    # (paper section 4.3.3)
    var, pnode, on_match = spec.var, memory.pnode, network.on_match

    def insert_simple(token):
        if gate is not None and not gate(token.event):
            return
        values = token.values
        old = token.old_values if keeps_old else None
        if accepts is not None and not accepts(values, old):
            return
        if dirty is not None:
            dirty[name] = rule
        network._stamp += 1
        tid = token.tid
        if pnode.add((tid,), Match(
                ((var, _new_entry((tid, values, old))),)),
                network._stamp):
            network._matches_added += 1
            on_match(rule)
    return insert_simple


def _delete_handler(network, memory):
    """A deletion verdict at one memory: drop the stored entry, then —
    once per (rule, token) — purge the P-node (and the network's join
    state).  A delete that removes no entry, at a memory whose P-node is
    empty, does nothing more: no match and no β partial can hold a tuple
    no α-memory of the rule holds.

    Only a rule with more than one variable on the relation can be
    reached twice by one token; its handlers run adjacently (the
    router's (rule, variable) order), so :attr:`~repro.core.network
    .DiscriminationNetwork._purged` remembers the last (token, rule)
    purged."""
    rule, pnode, spec = memory.rule, memory.pnode, memory.spec
    name = rule.name
    stored = not memory.is_virtual and not spec.is_simple
    on_drain = network.on_drain
    purges_joins = network.keeps_join_state
    shared = sum(other.relation == spec.relation
                 for other in rule.specs.values()) > 1

    def delete(token):
        tid = token.tid
        if stored and memory.remove(tid) is not None or pnode:
            if shared:
                purged = network._purged
                if purged[0] is token and purged[1] == name:
                    return
                network._purged = (token, name)
            if pnode.delete_by_tid(tid) and not pnode:
                on_drain(name)
            if purges_joins:
                network._handle_delete(rule, tid)
    return delete


def _retracts_while_clean(spec: VariableSpec) -> bool:
    """Whether a retraction at the memory can matter while no rule is
    dirty: at every kind but the simple memory of an event- or
    transition-gated rule that a delete does not assert, whose P-node
    holds nothing then."""
    if not spec.is_simple:
        return True
    event = spec.event
    if event is None:
        return not spec.is_transition
    return event.kind is EventKind.DELETE


#: ``_new_entry((tid, values, old_values))`` is ``MemoryEntry(...)``
#: without the named tuple's Python-level constructor, once per routed
#: insertion token
_new_entry = functools.partial(tuple.__new__, MemoryEntry)


class Router:
    """Where every token of one kind on one relation goes.

    Built by :meth:`~repro.core.network.DiscriminationNetwork
    ._compile_routes` from a ``plan`` of :meth:`~repro.core.network
    .DiscriminationNetwork._route_plans`: the relation's anchor
    ``slots``; ``handlers``, the route table's live map of each
    anchored memory to ``(order key, handler)``; ``unanchored``, its
    live, ordered list of the same pairs for the memories every token
    reaches; ``virtual``, a memory on the relation is virtual (its
    handlers run with the pending variables set); ``clean``, some
    handler acts while no rule is dirty; and ``general``, whether
    :attr:`route` needs more than the common shape — a relation whose
    memories are all anchored and stored stabs and runs its hits with
    nothing else to ask."""

    __slots__ = ("route", "clean", "plan")

    def __init__(self, network, plan):
        slots, handlers, unanchored, virtual, clean, general = plan
        self.plan = plan
        self.clean = clean
        if general:
            self.route = _general_route(network, slots, handlers,
                                        unanchored, virtual)
        else:
            self.route = _anchored_route(slots, handlers)


def _stabbed(slots, get, values) -> list:
    """The ``(order key, handler)`` hits of the memories whose anchors
    ``values`` satisfy (a null value satisfies none)."""
    hits = []
    for position, stab in slots:
        value = values[position]
        if value is not None:
            for interval in stab(value):
                hit = get(interval.payload.target)
                if hit is not None:
                    hits.append(hit)
    return hits


def _anchored_route(slots, handlers):
    get = handlers.get

    def route(token: Token) -> None:
        """Stab the anchors with the token's values, then run every
        handler reached in (rule, variable) order — the deterministic
        "ProcessedMemories" order that defines self-join semantics."""
        values = token.values
        hits = []
        for position, stab in slots:        # :func:`_stabbed`, inlined
            value = values[position]
            if value is not None:
                for interval in stab(value):
                    hit = get(interval.payload.target)
                    if hit is not None:
                        hits.append(hit)
        if len(hits) > 1:
            hits.sort()
        for hit in hits:
            hit[1](token)
    return route


def _general_route(network, slots, handlers, unanchored, virtual):
    get = handlers.get

    def route(token: Token) -> None:
        """:func:`_anchored_route`'s, with the unanchored memories
        merged in and, when a memory is virtual, each rule's pending
        variables set while its handlers run."""
        hits = _stabbed(slots, get, token.values)
        if hits:
            hits += unanchored
            hits.sort()
        else:
            hits = unanchored          # kept in order, never mutated
        if virtual and len(hits) > 1:
            network._route_pending(hits, token)
            return
        for hit in hits:
            hit[1](token)
    return route


#: overlay sentinel: the tuple is absent at this point of the sequence
ABSENT = object()


class BatchState:
    """One batch's heap-state overlay.

    Token streams are a faithful heap diff (``+``/``Δ+`` assert a tuple
    value, ``−``/``Δ−`` retract one; insertion tokens close each
    mutation's token group), so replaying token effects reconstructs the
    exact heap state the per-token path would expose to virtual-memory
    scans at every join point.  ``overlay`` maps, per relation, the tids
    whose in-sequence state still differs from the final heap state to
    that in-sequence state (a values tuple, or :data:`ABSENT`); a tid
    drops out once its last token is processed.
    """

    __slots__ = ("_remaining", "_overlay")

    def __init__(self, tokens: Sequence[Token]):
        remaining: dict[tuple, int] = {}
        overlay: dict[str, dict] = {}
        for token in tokens:
            key = (token.relation, token.tid)
            count = remaining.get(key)
            if count is None:
                remaining[key] = 1
                overlay.setdefault(token.relation, {})[token.tid] = \
                    _pre_batch_state(token)
            else:
                remaining[key] = count + 1
        self._remaining = remaining
        self._overlay = overlay

    def advance(self, token: Token) -> None:
        """Apply one token's heap effect before it is routed."""
        key = (token.relation, token.tid)
        left = self._remaining[key] - 1
        relation_overlay = self._overlay[token.relation]
        if left == 0:
            del self._remaining[key]
            relation_overlay.pop(token.tid, None)
        else:
            self._remaining[key] = left
            relation_overlay[token.tid] = (
                token.values if token.kind.is_insertion else ABSENT)

    def overlay_for(self, relation: str) -> dict | None:
        overlay = self._overlay.get(relation)
        return overlay if overlay else None


def _pre_batch_state(token: Token):
    """A tuple's heap state just before its first in-batch token.

    ``+`` only ever opens a tid's in-batch history for a fresh insert
    (case-1 re-assertions always follow their ``−`` within one mutation
    group); otherwise it opens with the ``−``/``Δ−`` that carries the
    value it retracts.  A ``Δ+`` never comes first: a statement's Δ-set
    emits every modification's retraction before its assertion.
    """
    return ABSENT if token.kind is TokenKind.PLUS else token.values
