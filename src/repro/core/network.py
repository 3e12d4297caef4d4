"""Discrimination network base: token routing, memories, priming, flush.

The shared machinery of the TREAT/A-TREAT and Rete networks:

* building one α-memory per (rule, tuple variable) with the right kind
  (stored / virtual / dynamic / simple) and registering its selection
  anchor in the top-level :class:`~repro.core.selection_index
  .SelectionIndex` — stored or virtual as the §8 storage budget
  decides (:mod:`repro.core.memory_optimizer`);
* compiling, whenever a memory is registered or unregistered, the
  **token routers** of its relation: one per token kind, holding the
  relation's anchor slots and, for every memory the kind acts on, a
  handler specialised to that memory's Figure-5 verdict
  (:func:`~repro.core.alpha.verdict`) — the residual test, the dirty
  mark and the subclass's join step included.  A kind no memory acts
  on has no router, so its tokens are not built;
* routing a token: stab the router's anchor slots with the token's
  values and run the handlers reached, in (rule, variable) order;
* routing a *batch* of tokens (:meth:`DiscriminationNetwork
  .process_tokens`): a whole transition Δ-set goes token by token down
  the same routers, with — so that virtual α-memories answer joins
  exactly as a lone token would see them — a batch overlay that masks
  not-yet-propagated heap mutations from base-relation scans;
* priming at rule activation — where the paper runs one one-variable
  query per tuple variable "plus … a query equivalent to the entire rule
  condition to load the P-node" (section 6), one selection pass loads
  each stored α-memory and the network's own join step the P-node;
* flushing dynamic memories (and the P-nodes fed by them) after each
  transition's rule processing — only for the rules the transition
  touched, which the insert handlers of dynamic rules register.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Callable, Iterable, Sequence

from repro.catalog.catalog import Catalog
from repro.core.alpha import AlphaMemory, MemoryEntry, VirtualAlphaMemory
from repro.core.join_planner import JoinPlanner
from repro.core.memory_optimizer import choose_memories
from repro.core.pnode import Match, PNode
from repro.core.routing import ABSENT, BatchState, Router, compile_handlers
from repro.core.rules import CompiledRule, VariableSpec
from repro.core.selection_index import SelectionIndex
from repro.core.tokens import Token, TokenKind
from repro.errors import RuleError
from repro.observe import EngineStats, NULL_STATS
from repro.planner.optimizer import Optimizer


class _RouteTable:
    """One relation's routing state: per token kind, ``[{anchored
    memory: (order key, handler)}, the unanchored memories' (order key,
    handler) pairs in order, how many of the kind's handlers act while
    no rule is dirty]``; and how many of its memories are virtual."""

    __slots__ = ("kinds", "virtual")

    def __init__(self):
        self.kinds: dict[TokenKind, list] = {}
        self.virtual = 0


class DiscriminationNetwork:
    """Base class for the rule condition testing networks."""

    #: subclasses override (used in benchmarks / repr)
    network_name = "abstract"
    #: True when every α-memory must be stored: a finite §8 budget is
    #: then a :class:`~repro.errors.MemoryBudgetError`
    stored_only = False
    #: True when the join step keeps state a deletion must purge
    #: (:meth:`_handle_delete`)
    keeps_join_state = False

    def __init__(self, catalog: Catalog,
                 optimizer: Optimizer | None = None,
                 on_match: Callable[[CompiledRule], None] | None = None,
                 on_drain: Callable[[str], None] | None = None,
                 stats: EngineStats | None = None):
        self.catalog = catalog
        self.optimizer = optimizer or Optimizer(catalog)
        self.selection_index = SelectionIndex()
        #: engine counter registry, shared with every memory / P-node
        #: built by :meth:`add_rule`
        self.stats = stats or NULL_STATS
        #: the §8 storage budget in α entries, set by
        #: ``optimize_memories``: ∞ stores every memory (TREAT), 0 none
        self.memory_budget = math.inf
        #: the adaptive seek/chain-order planner (cost-driven ordering,
        #: memoized on each rule per cardinality bucket)
        self.join_planner = JoinPlanner(self)
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
        #: relation -> {token kind's value -> its router} (a ``str`` key
        #: hashes in C, an ``Enum`` member in Python); a kind no memory on
        #: the relation acts on has no entry (see :meth:`_compile_routes`)
        self._routers: dict[str, dict[str, Router]] = {}
        #: relation -> what :meth:`_compile_routes` builds its routers
        #: from (kept by :meth:`_enter_routes`)
        self._route_tables: dict[str, _RouteTable] = {}
        self._stamp = 0
        #: P-node insertions since the last :meth:`_count_matches`
        #: (one ``pnode.inserts`` bump per routing call, not per match)
        self._matches_added = 0
        #: the in-flight batch overlay, or None
        self._batch: BatchState | None = None
        #: while a token runs its handlers: the routed rule's variables
        #: the same token reaches later (the ProcessedMemories protocol)
        self._pending: set[str] | tuple = ()
        #: the last (token, rule name) whose P-node a retraction purged,
        #: for the rules with two variables on one relation (see
        #: :func:`~repro.core.routing._delete_handler`)
        self._purged: tuple = (None, None)
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
        """Enter a memory into the network and its selection index, and
        recompile its relation's routers with the memory's handlers."""
        spec = memory.spec
        memory.rule = rule
        memory.pnode = self._pnodes[rule.name]
        memory.order_key = (rule.name, spec.var)
        memory.stats = self.stats
        if memory.is_virtual:
            self._virtual_count += 1
        self._memories[(rule.name, spec.var)] = memory
        self.selection_index.add(
            spec.relation, spec.analysis.anchor if spec.analysis else None,
            memory)
        memory.handlers = compile_handlers(self, memory)
        self._enter_routes(memory, 1)
        self._compile_routes(spec.relation)

    def _unregister(self, memory) -> None:
        if memory.is_virtual:
            self._virtual_count -= 1
        self.selection_index.remove(memory)
        self._enter_routes(memory, -1)
        self._compile_routes(memory.spec.relation)

    def _enter_routes(self, memory, sign: int) -> None:
        """Add (``sign`` 1) or withdraw (-1) a memory's handlers in its
        relation's route table."""
        relation = memory.spec.relation
        table = self._route_tables.get(relation)
        if table is None:
            table = self._route_tables[relation] = _RouteTable()
        table.virtual += sign * memory.is_virtual
        analysis = memory.spec.analysis
        anchored = analysis is not None and analysis.anchor is not None
        kinds = table.kinds
        for kind, (function, needs_dirty) in memory.handlers.items():
            entry = kinds.setdefault(kind, [{}, [], 0])
            hit = (memory.order_key, function)
            if anchored and sign > 0:
                entry[0][memory] = hit
            elif anchored:
                del entry[0][memory]
            elif sign > 0:
                insort(entry[1], hit)
            else:
                entry[1].remove(hit)
            entry[2] += sign * (not needs_dirty)
            if not entry[0] and not entry[1]:
                del kinds[kind]
        if not kinds:
            del self._route_tables[relation]

    def _compile_routes(self, relation: str) -> None:
        """Rebuild the relation's routers (only ever on registration,
        never on the token path).  A router reads its kind's handler
        dict and unanchored list live, so a rebuild only re-reads the
        anchor slots and the flags that pick its shape."""
        plans = self._route_plans(relation)
        if plans:
            self._routers[relation] = {
                kind: Router(self, plan) for kind, plan in plans.items()}
        else:
            self._routers.pop(relation, None)

    def _route_plans(self, relation: str) -> dict:
        """``{token kind's value: (anchor slots, anchored handlers,
        unanchored handlers, a memory is virtual, a handler acts while
        no rule is dirty, the route needs the general shape)}`` for
        every kind a memory on the relation acts on: what
        :meth:`_compile_routes` builds the routers from."""
        table = self._route_tables.get(relation)
        if table is None:
            return {}
        slots = self.selection_index.slots(relation)
        virtual = table.virtual > 0
        return {kind._value_: (slots, handlers, unanchored, virtual,
                               clean > 0, virtual or bool(unanchored))
                for kind, (handlers, unanchored, clean)
                in table.kinds.items()}

    def stale_routes(self) -> list[str]:
        """The relations whose routers differ from what a rebuild
        would compile now (a registration that skipped
        :meth:`_compile_routes`); empty in a consistent network."""
        return sorted(
            relation for relation
            in self._routers.keys() | self._route_tables.keys()
            if {kind: router.plan for kind, router
                in self._routers.get(relation, {}).items()}
            != self._route_plans(relation))

    def routes(self, relation: str, kind: TokenKind) -> bool:
        """Whether a token of ``kind`` on ``relation`` can change
        anything here — a memory there acts on the kind.  A retraction
        (``−``/``Δ−``) whose only handlers are at simple event- or
        transition-gated memories that a delete does not assert can
        not while no rule is dirty: such a P-node is filled only by a
        token it accepts, accepting one makes the rule dirty, and
        :meth:`flush_dynamic` empties the P-node before it clears the
        rule's dirty mark."""
        routes = self._routers.get(relation)
        router = routes.get(kind._value_) if routes is not None else None
        return router is not None and (router.clean or bool(self._dirty))

    def sees_retractions(self, relation: str) -> bool:
        """Whether a delete statement's tokens on ``relation`` (``−``,
        or ``Δ−`` then ``−``) can change anything here."""
        return (self.routes(relation, TokenKind.MINUS)
                or self.routes(relation, TokenKind.DELTA_MINUS))

    def _join_step(self, rule: CompiledRule, memory):
        """Subclass hook: ``join(entry, token)`` finds the new complete
        combinations an entry accepted at ``memory`` (and stored there
        unless the memory is virtual) makes.  While it runs,
        :attr:`_pending` holds
        this rule's variables the same token reaches later — the
        ProcessedMemories protocol: the token's own tuple must be
        excluded when consulting their (virtual) memories, so self-joins
        count each combination exactly once."""
        raise NotImplementedError

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
        self._count_matches()
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
        routes = self._routers.get(token.relation)
        router = (routes.get(token.kind._value_) if routes is not None
                  else None)
        if router is not None:
            try:
                router.route(token)
            finally:
                self._count_matches()

    def process_tokens(self, tokens: Sequence[Token]) -> None:
        """Route a transition Δ-set through the network as one batch.

        Identical to calling :meth:`process_token` on each token in
        order against the per-token heap states: every token takes the
        same router, and virtual α-memories answer joins through a batch
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
        n = len(tokens)
        if not n:
            return
        self.tokens_processed += n
        if n == 1:
            self.stats.note_tokens_routed()
        else:
            self.batches_processed += 1
            self.stats.note_tokens_routed(n, batches=1)
        routers = self._routers
        # The overlay only matters to virtual-memory base-relation
        # scans; a batch skips it while no memory is virtual.
        batch = self._batch = (BatchState(tokens)
                               if n > 1 and self._virtual_count else None)
        try:
            for token in tokens:
                if batch is not None:
                    batch.advance(token)
                routes = routers.get(token.relation)
                if routes is not None:
                    router = routes.get(token.kind._value_)
                    if router is not None:
                        router.route(token)
        finally:
            self._batch = None
            self._count_matches()

    def _route_pending(self, hits: list, token: Token) -> None:
        """Run a token's handlers with :attr:`_pending` set (a virtual
        memory is among them): each rule's variables the token has yet
        to reach."""
        pending: dict[str, set[str]] = {}
        for (rule_name, var), _handler in hits:
            pending.setdefault(rule_name, set()).add(var)
        try:
            for (rule_name, var), handler in hits:
                later = pending[rule_name]
                later.discard(var)
                self._pending = later
                handler(token)
        finally:
            self._pending = ()

    def _count_matches(self) -> None:
        """Add the P-node insertions since the last call to
        ``pnode.inserts`` (one bump per routing call: a per-match bump
        would dominate the counter budget on large batches)."""
        added = self._matches_added
        if added:
            self._matches_added = 0
            stats = self.stats
            if stats.enabled:
                counters = stats.counters
                counters["pnode.inserts"] = \
                    counters.get("pnode.inserts", 0) + added

    def _handle_delete(self, rule: CompiledRule, tid) -> None:
        """Subclass hook after a deletion (Rete drops β partials here).

        Called once per (rule, token), after the reached memory has
        dropped its entry and the P-node every match holding ``tid``.
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
                if values is not ABSENT and tid != exclude]
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
        broken" (paper section 4.3.2).  Only rules an insert handler
        registered can hold such a binding, so the cost is proportional
        to the transition, not to the rule base.
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
        self._count_matches()

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
