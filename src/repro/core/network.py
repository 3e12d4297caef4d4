"""Discrimination network base: token routing, memories, priming, flush.

The shared machinery of the TREAT/A-TREAT and Rete networks:

* building one α-memory per (rule, tuple variable) with the right kind
  (stored / virtual / dynamic / simple) and registering its selection
  anchor in the top-level :class:`~repro.core.selection_index
  .SelectionIndex` — stored or virtual as the §8 storage budget
  decides (:mod:`repro.core.memory_optimizer`);
* routing a token: probe the selection index with the token's values,
  take each candidate memory's Figure-5 verdict (fixed at registration,
  or :func:`~repro.core.alpha.dispatch`'s), verify the residual
  predicate of an insertion, and hand it to the subclass's join step;
* routing a *batch* of tokens (:meth:`DiscriminationNetwork
  .process_tokens`): a whole transition Δ-set goes token by token down
  the same path, one selection-index probe each, with — so that virtual
  α-memories answer joins exactly as a lone token would see them — a
  batch overlay that masks not-yet-propagated heap mutations from
  base-relation scans;
* priming at rule activation — where the paper runs one one-variable
  query per tuple variable "plus … a query equivalent to the entire rule
  condition to load the P-node" (section 6), one selection pass loads
  each stored α-memory and the network's own join step the P-node;
* flushing dynamic memories (and the P-nodes fed by them) after each
  transition's rule processing — only for the rules the transition
  touched, which the single accept point of token routing registers.
"""

from __future__ import annotations

import functools
import math
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from repro.catalog.catalog import Catalog
from repro.core.alpha import (
    AlphaMemory, MemoryEntry, VirtualAlphaMemory, dispatch)
from repro.core.join_planner import JoinPlanner
from repro.core.memory_optimizer import choose_memories
from repro.core.pnode import Match, PNode
from repro.core.rules import CompiledRule, VariableSpec
from repro.core.selection_index import SelectionIndex
from repro.core.tokens import Token, TokenKind
from repro.errors import RuleError
from repro.lang.ast_nodes import EventKind
from repro.observe import EngineStats, NULL_STATS
from repro.planner.optimizer import Optimizer


class DiscriminationNetwork:
    """Base class for the rule condition testing networks."""

    #: subclasses override (used in benchmarks / repr)
    network_name = "abstract"
    #: True when every α-memory must be stored: a finite §8 budget is
    #: then a :class:`~repro.errors.MemoryBudgetError`
    stored_only = False

    def __init__(self, catalog: Catalog,
                 optimizer: Optimizer | None = None,
                 on_match: Callable[[CompiledRule], None] | None = None,
                 on_drain: Callable[[str], None] | None = None,
                 stats: EngineStats | None = None,
                 join_mode: str = "auto"):
        self.catalog = catalog
        self.optimizer = optimizer or Optimizer(catalog)
        self.selection_index = SelectionIndex()
        #: engine counter registry, shared with every memory / P-node
        #: built by :meth:`add_rule`
        self.stats = stats or NULL_STATS
        #: the §8 storage budget in α entries, set by
        #: ``optimize_memories``: ∞ stores every memory (TREAT), 0 none
        self.memory_budget = math.inf
        #: the adaptive seek/chain-order planner (cost-driven ordering
        #: and pairwise-vs-multiway algorithm choice, memoized on each
        #: rule per cardinality bucket)
        self.join_planner = JoinPlanner(self, mode=join_mode)
        self.on_match = on_match or (lambda rule: None)
        #: told a rule's name when a retraction or a flush empties its
        #: P-node (the agenda re-validates the rule at its next select)
        self.on_drain = on_drain or (lambda name: None)
        self.rules: dict[str, CompiledRule] = {}
        self._memories: dict[tuple[str, str],
                             AlphaMemory | VirtualAlphaMemory] = {}
        self._pnodes: dict[str, PNode] = {}
        #: rules with a dynamic variable that accepted a token since the
        #: last :meth:`flush_dynamic` (name -> rule, in accept order)
        self._dirty: dict[str, CompiledRule] = {}
        #: relation -> how many of its memories can act on a retraction
        #: (see :meth:`sees_retractions`)
        self._retraction_seers: dict[str, int] = {}
        self._stamp = 0
        #: the in-flight batch, or None on the per-token path
        self._batch: _BatchState | None = None
        #: virtual α-memories currently in the network (overlay gate)
        self._virtual_count = 0
        #: diagnostics: tokens processed since construction
        self.tokens_processed = 0
        #: diagnostics: process_tokens batches routed since construction
        self.batches_processed = 0

    # ------------------------------------------------------------------
    # rule lifecycle
    # ------------------------------------------------------------------

    def add_rule(self, rule: CompiledRule, prime: bool = True) -> None:
        """Build the rule's memories, its pattern memories stored or
        virtual under what is left of :attr:`memory_budget`, and
        optionally prime them."""
        if rule.name in self.rules:
            raise RuleError(f"rule {rule.name!r} already in network")
        virtual = set()         # ∞ stores every memory: nothing to plan
        if self.memory_budget < math.inf:
            left = max(self.memory_budget - self.memory_entry_count(), 0)
            virtual = {c.var for c in choose_memories(
                self.catalog, (rule,), left) if not c.materialize}
        self.rules[rule.name] = rule
        pnode = self._pnodes[rule.name] = PNode(rule.name, rule.variables)
        pnode.stats = self.stats
        for var in rule.variables:
            self._register(rule, self._make_memory(rule, rule.specs[var],
                                                   var in virtual))
        if prime:
            self.prime_rule(rule)

    def remove_rule(self, name: str) -> None:
        """Tear down the rule's memories and P-node."""
        rule = self.rules.pop(name, None)
        if rule is None:
            raise RuleError(f"rule {name!r} not in network")
        for var in rule.variables:
            self._unregister(self._memories.pop((name, var)))
        del self._pnodes[name]
        self._dirty.pop(name, None)

    def set_virtual(self, rule_name: str, var: str, virtual: bool) -> bool:
        """Turn one pattern memory virtual (dropping its entries) or
        stored (one select pass) in place; returns whether it changed.
        It holds the same tuples either way (paper §4.2), so P-node,
        agenda, action plans and stamps stay: only the rule's join
        memo, costed on the old storage, is emptied."""
        old = self._memories.get((rule_name, var))
        if old is None:
            raise RuleError(f"no α-memory {rule_name}/{var} in network")
        if old.is_virtual == virtual:
            return False
        spec = old.spec
        if spec.is_dynamic or spec.is_simple:
            raise RuleError(f"α-memory {rule_name}/{var} is "
                            f"{old.kind_name}, not a pattern memory")
        rule = self.rules[rule_name]
        new = self._make_memory(rule, spec, virtual)
        if not virtual:
            # filled before registering: a swap is not token traffic
            relation = self.catalog.relation(spec.relation)
            for tid, values in spec.select(relation):
                new.insert(MemoryEntry(tid, values))
        self._unregister(old)
        self._register(rule, new)
        rule.join_memo = {}
        return True

    def _make_memory(self, rule: CompiledRule, spec: VariableSpec,
                     virtual: bool):
        """A virtual memory, or a stored one with a join index on each
        position the rule equi-joins the variable on (a simple memory,
        of a one-variable rule, has none)."""
        if virtual:
            return VirtualAlphaMemory(rule.name, spec)
        return AlphaMemory(rule.name, spec, sorted({
            position for _other, _attr, position
            in rule.equijoins_by_var.get(spec.var, ())}))

    def _register(self, rule: CompiledRule, memory) -> None:
        """Enter a memory into the network and its selection index,
        with the Figure-5 verdicts its gates fix."""
        spec = memory.spec
        memory.rule = rule
        memory.pnode = self._pnodes[rule.name]
        memory.order_key = (rule.name, spec.var)
        memory.stats = self.stats
        event = spec.event
        memory.inserts_plus = event is None and not spec.is_transition
        memory.inserts_append = (memory.inserts_plus
                                 or not spec.is_transition
                                 and event.kind is EventKind.APPEND)
        memory.deletes_minus = not spec.is_transition and (
            event is None or event.kind is not EventKind.DELETE)
        if memory.is_virtual:
            self._virtual_count += 1
        if _sees_retractions(spec):
            seers = self._retraction_seers
            seers[spec.relation] = seers.get(spec.relation, 0) + 1
        self._memories[(rule.name, spec.var)] = memory
        self.selection_index.add(
            spec.relation, spec.analysis.anchor if spec.analysis else None,
            memory)

    def _unregister(self, memory) -> None:
        if memory.is_virtual:
            self._virtual_count -= 1
        spec = memory.spec
        if _sees_retractions(spec):
            seers = self._retraction_seers
            left = seers[spec.relation] - 1
            if left:
                seers[spec.relation] = left
            else:
                del seers[spec.relation]
        self.selection_index.remove(memory)

    def sees_retractions(self, relation: str) -> bool:
        """Whether a delete statement's tokens on ``relation`` can change
        anything here.  They cannot while every memory on it is the
        simple memory of an event- or transition-gated rule that a
        delete does not assert (not ``on delete``) and no rule is dirty:
        such a P-node is filled only by a token it accepts, accepting
        one makes the rule dirty, and :meth:`flush_dynamic` empties the
        P-node before it clears the rule's dirty mark.  O(1): the
        per-relation count is kept by :meth:`_register` /
        :meth:`_unregister`."""
        return relation in self._retraction_seers or bool(
            self._dirty) and self.selection_index.watches(relation)

    # ------------------------------------------------------------------
    # priming
    # ------------------------------------------------------------------

    def prime_rule(self, rule: CompiledRule) -> None:
        """Load the rule's stored memories and its (fresh) P-node from
        current data: one :meth:`VariableSpec.select` pass per stored
        variable, then the P-node through the join step that token
        propagation uses."""
        tally = [0]
        memories = [self._memories[(rule.name, var)]
                    for var in rule.variables]
        for memory in memories:
            spec = memory.spec
            if memory.is_virtual or spec.is_dynamic or spec.is_simple:
                continue
            relation = self.catalog.relation(spec.relation)
            for tid, values in spec.select(relation, tally=tally):
                memory.insert(MemoryEntry(tid, values))
        if len(memories) > 1:
            self._join_memories(rule, tally)
        elif not rule.has_dynamic_variable:
            spec = memories[0].spec
            pnode = self._pnodes[rule.name]
            relation = self.catalog.relation(spec.relation)
            for tid, values in spec.select(relation, tally=tally):
                self._stamp += 1
                pnode.insert(Match(((spec.var, MemoryEntry(tid, values)),)),
                             self._stamp)
            if pnode:
                self.stats.bump("pnode.inserts", len(pnode))
                self.on_match(rule)
        self.stats.bump("network.rules_primed")
        self.stats.bump("network.prime_tuples_examined", tally[0])

    def _join_memories(self, rule: CompiledRule,
                       tally: list | None = None) -> None:
        """Subclass hook: derive a rule's join state and P-node from
        its α-memories, just loaded (priming) or just flushed (TREAT
        seeks from one memory, Rete rebuilds its β chain); ``tally[0]``
        grows by the tuples any extra relation pass examines."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # token routing
    # ------------------------------------------------------------------

    def process_token(self, token: Token) -> None:
        """Route one token through the network (paper Figure 5)."""
        self.tokens_processed += 1
        self.stats.note_tokens_routed()
        self._process_one(token)

    def process_tokens(self, tokens: Sequence[Token]) -> None:
        """Route a transition Δ-set through the network as one batch.

        Identical to calling :meth:`process_token` on each token in
        order against the per-token heap states: every token takes the
        same path, and virtual α-memories answer joins through a batch
        overlay that reconstructs the heap state each token would have
        seen had its mutation been routed immediately (tuples asserted
        by later tokens are masked out; tuples they retract or overwrite
        are restored).
        """
        if isinstance(tokens, Token):     # a Token is a tuple itself
            raise TypeError("process_tokens takes a sequence of tokens; "
                            "route one token with process_token")
        if not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)
        if not tokens:
            return
        if len(tokens) == 1:
            self.tokens_processed += 1
            self.stats.note_tokens_routed()
            self._process_one(tokens[0])
            return
        self.batches_processed += 1
        self.tokens_processed += len(tokens)
        stats = self.stats
        stats.note_tokens_routed(len(tokens), batches=1)
        # The overlay only matters to virtual-memory base-relation scans;
        # skip its per-token bookkeeping when no memory is virtual.
        track_overlay = self._virtual_count > 0
        batch = _BatchState(tokens, track_overlay=track_overlay)
        self._batch = batch
        process_one = self._process_one
        try:
            if track_overlay:
                advance = batch.advance
                for token in tokens:
                    advance(token)
                    process_one(token)
            else:
                for token in tokens:
                    process_one(token)
        finally:
            self._batch = None
            if stats.enabled and batch.pnode_inserts:
                stats.bump("pnode.inserts", batch.pnode_inserts)

    def _process_one(self, token: Token) -> None:
        candidates = self.selection_index.probe(token.relation,
                                                token.values)
        pending: dict[str, set[str]] | None = None
        if len(candidates) > 1:
            # Deterministic processing order defines the sequential
            # "ProcessedMemories" semantics for self-joins; a token that
            # reaches one memory needs neither, and only a virtual
            # memory asks which variables are still pending.
            candidates.sort(key=_order_key)
            if self._virtual_count:
                pending = {}
                for memory in candidates:
                    pending.setdefault(memory.rule_name, set()).add(
                        memory.spec.var)
        # what a +/Δ+ inserts wherever its verdict is fixed (Figure 5)
        kind = token.kind
        if kind is TokenKind.PLUS:
            plus_entry = _new_entry((token.tid, token.values, None))
            event = token.event
            appended = (event is not None
                        and event.kind is EventKind.APPEND)
        elif kind is TokenKind.DELTA_PLUS:
            plus_entry = _new_entry((token.tid, token.values, None))
            appended = False
        else:
            plus_entry = None
        # the rules whose P-node this token already purged (an
        # insertion kind never deletes)
        deleted_rules: set[str] | None = (set() if plus_entry is None
                                          else None)
        deleting = kind is TokenKind.MINUS
        for memory in candidates:
            rule = memory.rule
            spec = memory.spec
            if pending is None:
                pending_vars: set[str] | tuple = ()
            else:
                pending_vars = pending[rule.name]
                pending_vars.discard(spec.var)
            # the Figure-5 verdicts fixed at registration skip the table
            if plus_entry is not None and (
                    memory.inserts_plus
                    or appended and memory.inserts_append):
                entry = plus_entry
            elif deleting and memory.deletes_minus:
                self._apply_delete(rule, memory, token.tid, deleted_rules)
                continue
            else:
                op = dispatch(spec, token)
                if op is None:
                    continue
                if op.op == "delete":
                    self._apply_delete(rule, memory, op.tid,
                                       deleted_rules)
                    continue
                entry = op.entry
            # insertion: verify the residual before accepting
            if spec.residual is not None and not spec.residual_matches(
                    entry.values, entry.old_values):
                continue
            if rule.has_dynamic_variable:
                # registered before the memory / P-node is touched, so
                # a failure further down is still flushed
                self._dirty[rule.name] = rule
            if spec.is_simple:
                # Simple memories pass matching data straight to the
                # P-node (paper section 4.3.3).
                self._stamp += 1
                if memory.pnode.insert(Match(((spec.var, entry),)),
                                       self._stamp):
                    self._note_pnode_insert()
                    self.on_match(rule)
                continue
            self._handle_insert(rule, spec, memory, entry,
                                pending_vars=pending_vars,
                                token=token)

    def _apply_delete(self, rule: CompiledRule, memory, tid,
                      deleted_rules: set[str]) -> None:
        """Apply one delete-kind memory op: drop the entry from a
        stored memory, and — once per (rule, token) — purge the P-node
        and run the subclass delete hook.  A delete that removes no
        entry, at a memory whose P-node is empty, does nothing more: no
        match and no β partial can hold a tuple no α-memory of the rule
        holds."""
        removed = (not memory.is_virtual and not memory.spec.is_simple
                   and memory.remove(tid) is not None)
        if (removed or memory.pnode) and rule.name not in deleted_rules:
            deleted_rules.add(rule.name)
            pnode = memory.pnode
            if pnode.delete_by_tid(tid) and not pnode:
                self.on_drain(rule.name)
            self._handle_delete(rule, tid)

    def _note_pnode_insert(self) -> None:
        """Count one accepted P-node insertion: batch-aggregated while
        a batch is in flight (a per-event bump would dominate the
        counter budget on large batches), a direct bump otherwise."""
        batch = self._batch
        if batch is not None:
            batch.pnode_inserts += 1
        elif self.stats.enabled:
            self.stats.bump("pnode.inserts")

    def _handle_insert(self, rule: CompiledRule, spec: VariableSpec,
                       memory, entry: MemoryEntry,
                       pending_vars: set[str], token: Token) -> None:
        """Subclass hook: store the entry and seek new combinations.

        ``pending_vars`` are this rule's variables that will receive the
        same token later in the processing order — the ProcessedMemories
        protocol: the token's own tuple must be excluded when consulting
        their (virtual) memories, so self-joins count each combination
        exactly once.
        """
        raise NotImplementedError

    def _handle_delete(self, rule: CompiledRule, tid) -> None:
        """Subclass hook after a deletion (Rete drops β partials here).

        Called once per (rule, token); α-memory and P-node cleanup has
        already happened.
        """

    def _join_candidates(self, memory, var: str, partial: dict,
                         conjuncts, pending_vars, token: Token | None):
        """One join step's candidate entries, plus the equi-join
        conjunct the access path already *enforces* (None when every
        conjunct must still be evaluated over the candidates).

        Stored memories answer an equality probe from the hash
        join-index the rule's join graph gave them at activation.
        Virtual memories answer from the base relation via
        :meth:`_virtual_entries`, whose equality sharpening is exact,
        so the probed conjunct is enforced there too.  Null and NaN
        probe values yield no candidates: under three-valued logic they
        never satisfy an equi-join conjunct, and no join-index holds one.
        """
        probe = equality_probe(var, partial, conjuncts)
        if not memory.is_virtual:
            if probe is None:
                return memory.entries(), None
            position, value, conjunct = probe
            return memory.join_probe(position, value), conjunct
        if probe is None:
            equality, enforced = None, None
        else:
            equality, enforced = (probe[0], probe[1]), probe[2]
        entries = self._virtual_entries(memory, var, partial, equality,
                                        pending_vars, token)
        return entries, enforced

    def _virtual_entries(self, memory, var: str, partial: dict,
                         equality: tuple[int, object] | None,
                         pending_vars, token: Token | None
                         ) -> Iterable[MemoryEntry]:
        """A virtual α-memory's conceptual contents for one join step.

        Applies the bound-constant sharpening of paper §4.2, the
        ProcessedMemories own-tuple exclusion, and — on the batched path —
        the batch overlay: heap tuples whose state at this point of the
        token sequence differs from the final heap state are masked, and
        their in-sequence values re-derived from the pending tokens, so
        "a virtual α-memory node implicitly contains exactly the same set
        of tokens as a stored α-memory node" holds mid-batch too.
        """
        if equality is not None:
            value = equality[1]
            if value is None or value != value:
                # null/NaN never satisfies an equi-join conjunct
                return ()
        exclude = (token.tid if token is not None and var in pending_vars
                   and token.relation == memory.spec.relation else None)
        entries = memory.candidates(self.catalog, equality)
        batch = self._batch
        overlay = (batch.overlay_for(memory.spec.relation)
                   if batch is not None else None)
        if not overlay:
            if exclude is None:
                return entries
            return [entry for entry in entries if entry.tid != exclude]
        entries = [entry for entry in entries
                   if entry.tid not in overlay and entry.tid != exclude]
        live = [(tid, values) for tid, values in overlay.items()
                if values is not _ABSENT and tid != exclude]
        entries.extend(MemoryEntry(tid, values) for tid, values
                       in memory.spec.matching(live, equality))
        return entries

    # ------------------------------------------------------------------
    # transition lifecycle
    # ------------------------------------------------------------------

    def flush_dynamic(self) -> None:
        """Empty the dynamic memories, and the P-nodes they feed, of
        every rule this transition touched.

        Called after the recognize-act processing of each transition:
        "the binding between the matching data and the condition should be
        broken" (paper section 4.3.2).  Only rules registered by
        :meth:`_process_one` can hold such a binding, so the cost is
        proportional to the transition, not to the rule base.
        """
        dirty = self._dirty
        if not dirty:
            return
        if self.stats.enabled:
            self.stats.bump("network.dynamic_rules_flushed", len(dirty))
        for name, rule in dirty.items():
            if self.rules.get(name) is not rule:
                continue        # removed or rebuilt since it registered
            for var in rule.dynamic_variables:
                self._memories[(name, var)].flush()
            pnode = self._pnodes[name]
            if pnode:
                pnode.clear()
                self.on_drain(name)
            self._join_memories(rule)
        dirty.clear()

    # ------------------------------------------------------------------
    # access / diagnostics
    # ------------------------------------------------------------------

    def pnode(self, rule_name: str) -> PNode:
        return self._pnodes[rule_name]

    def memory(self, rule_name: str, var: str):
        return self._memories[(rule_name, var)]

    def beta_partials(self, rule_name: str) -> Iterable[dict]:
        """The rule's materialised β partials (none outside Rete)."""
        return ()

    def beta_chain(self, rule_name: str) -> list[str] | None:
        """The rule's β-chain variable order (None outside Rete)."""
        return None

    def memory_entry_count(self, rule_name: str | None = None) -> int:
        """Materialised α-memory entries (virtual nodes count zero) —
        the storage the A-TREAT virtual-memory optimisation saves."""
        total = 0
        for (name, _), memory in self._memories.items():
            if rule_name is None or name == rule_name:
                total += len(memory)
        return total

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({len(self.rules)} rules, "
                f"{self.memory_entry_count()} α entries)")


def _sees_retractions(spec: VariableSpec) -> bool:
    """Whether a memory can act on a delete statement's tokens: every
    kind but the simple memory of an event- or transition-gated rule
    that a delete does not assert (see
    :meth:`DiscriminationNetwork.sees_retractions`)."""
    if not spec.is_simple:
        return True
    event = spec.event
    if event is None:
        return not spec.is_transition
    return event.kind is EventKind.DELETE


#: a memory's place in the token processing order: (rule, variable)
_order_key = attrgetter("order_key")

#: ``_new_entry((tid, values, old_values))`` is ``MemoryEntry(...)``
#: without the named tuple's Python-level constructor, once per routed
#: insertion token
_new_entry = functools.partial(tuple.__new__, MemoryEntry)


#: overlay sentinel: the tuple is absent at this point of the sequence
_ABSENT = object()


class _BatchState:
    """One batch's heap-state overlay and P-node insertion count.

    Token streams are a faithful heap diff (``+``/``Δ+`` assert a tuple
    value, ``−``/``Δ−`` retract one; insertion tokens close each
    mutation's token group), so replaying token effects reconstructs the
    exact heap state the per-token path would expose to virtual-memory
    scans at every join point.  ``overlay`` maps, per relation, the tids
    whose in-sequence state still differs from the final heap state to
    that in-sequence state (a values tuple, or :data:`_ABSENT`); a tid
    drops out once its last token is processed.
    """

    __slots__ = ("pnode_inserts", "_remaining", "_overlay")

    def __init__(self, tokens: Sequence[Token], track_overlay: bool = True):
        #: P-node insertions, aggregated into ``pnode.inserts`` once per
        #: batch — a per-event EngineStats.bump() would dominate the
        #: counter overhead budget on large batches
        self.pnode_inserts = 0
        if not track_overlay:
            self._remaining = None
            self._overlay = None
            return
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
                token.values if token.kind.is_insertion else _ABSENT)

    def overlay_for(self, relation: str) -> dict | None:
        if self._overlay is None:
            return None
        overlay = self._overlay.get(relation)
        return overlay if overlay else None


def _pre_batch_state(token: Token):
    """A tuple's heap state just before its first in-batch token.

    ``+`` only ever opens a tid's in-batch history for a fresh insert
    (case-1 re-assertions always follow their ``−`` within one mutation
    group); ``−``/``Δ−`` carry the value they retract; a leading ``Δ+``
    (only possible when an earlier batch already routed the pair's
    retraction) re-asserts over ``old_values``.
    """
    if token.kind is TokenKind.PLUS:
        return _ABSENT
    if token.kind is TokenKind.DELTA_PLUS:
        return token.old_values
    return token.values


def equality_probe(var: str, partial: dict,
                   conjuncts) -> tuple[int, object, object] | None:
    """Constant substitution into one join step (paper §4.2): find an
    equi-join conjunct linking ``var`` to an already-bound variable and
    return (position in var's tuple, the bound value, the conjunct) so
    the step can probe an index or hash bucket — and skip re-evaluating
    the conjunct the probe already enforces.
    """
    found = bound_equijoin(var, partial, conjuncts)
    if found is None:
        return None
    position, other, other_position, conjunct = found
    return position, partial[other].values[other_position], conjunct


def bound_equijoin(var: str, bound, conjuncts
                   ) -> tuple[int, str, int, object] | None:
    """The first equi-join conjunct linking ``var`` to a variable in
    ``bound``, as (var's position, the bound variable, its position,
    the conjunct) — what :func:`equality_probe` resolves per call and a
    planned seek step resolves once."""
    for conjunct in conjuncts:
        equi = conjunct.equijoin
        if equi is None:
            continue
        if equi.left_var == var and equi.right_var in bound:
            return (equi.left_position, equi.right_var,
                    equi.right_position, conjunct)
        if equi.right_var == var and equi.left_var in bound:
            return (equi.right_position, equi.left_var,
                    equi.left_position, conjunct)
    return None
