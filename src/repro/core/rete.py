"""A Rete network: stored α- and β-memories on one pairwise chain.

Rete (Forgy 1982) materialises β-memories — one per prefix of the rule's
chain order — holding the partial joins.  A token entering α-memory *i*
joins leftward against the level *i−1* β-memory and cascades rightward
through the remaining α-memories, storing every surviving partial; a
deletion removes all β partials (and P-node matches) involving the tuple.

This is the §7 baseline TREAT and A-TREAT are measured against (the
``ablate-net`` benchmark), so it stays the classic algorithm: every
α-memory is stored — a finite §8 storage budget raises
:class:`~repro.errors.MemoryBudgetError` — and every join is a pairwise
step on the β chain, whose order is the planner's
:meth:`~repro.core.join_planner.JoinPlanner.chain_order`.

α-memory handling, selection-index routing, event and transition gating
are all inherited from the shared base; this class only adds the β
chain.  A dynamic rule rebuilds its β chain after the flush at the end
of the rule processing of each transition that touched it.
"""

from __future__ import annotations

from repro.core.alpha import MemoryEntry
from repro.core.network import DiscriminationNetwork
from repro.core.pnode import Match
from repro.core.rules import CompiledRule, JoinConjunct
from repro.core.tokens import Token
from repro.lang.expr import Bindings
from repro.storage.tuples import TupleId


class _ReteState:
    """The β chain of one rule."""

    def __init__(self, rule: CompiledRule):
        self.set_order(rule, list(rule.variables))

    def set_order(self, rule: CompiledRule, order: list[str]) -> None:
        """Adopt a chain order: β keys are tid tuples over order
        prefixes, so this is only safe when the chain is empty (at
        construction or right after :meth:`clear`)."""
        self.order: list[str] = list(order)
        #: betas[i] holds partials over order[0..i], keyed by tid tuple
        self.betas: list[dict[tuple, dict[str, MemoryEntry]]] = [
            {} for _ in self.order]
        #: conjuncts first evaluable at each level
        self.level_conjuncts: list[list[JoinConjunct]] = []
        bound: set[str] = set()
        for var in self.order:
            before = set(bound)
            bound.add(var)
            self.level_conjuncts.append(
                [j for j in rule.joins
                 if j.variables <= bound and not j.variables <= before])

    def entry_count(self) -> int:
        return sum(len(level) for level in self.betas)

    def clear(self) -> None:
        for level in self.betas:
            level.clear()


class ReteNetwork(DiscriminationNetwork):
    """Rete with stored α-memories and materialised β-memories."""

    network_name = "Rete"
    stored_only = True
    keeps_join_state = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._states: dict[str, _ReteState] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def add_rule(self, rule: CompiledRule, prime: bool = True) -> None:
        self._states[rule.name] = _ReteState(rule)
        super().add_rule(rule, prime)

    def remove_rule(self, name: str) -> None:
        super().remove_rule(name)
        del self._states[name]

    def _join_memories(self, rule: CompiledRule,
                       tally: list | None = None) -> None:
        """Recompute the β chain — and with it the P-node — from
        current α contents, adopting the planner's cost-driven chain
        order while the chain is empty (the only safe reorder point: β
        keys are tid tuples over order prefixes).  This is how a rule
        is primed; after a dynamic flush no combination is complete."""
        state = self._states[rule.name]
        state.clear()
        if len(rule.variables) == 1:
            return
        order = self.join_planner.chain_order(rule)
        if order != state.order:
            state.set_order(rule, order)
        for entry in self._memories[(rule.name, order[0])].entries():
            self._cascade(rule, state, 0, {order[0]: entry})

    # ------------------------------------------------------------------
    # token handling
    # ------------------------------------------------------------------

    def _join_step(self, rule: CompiledRule, memory):
        var = memory.spec.var

        def join(entry: MemoryEntry, token: Token) -> None:
            self._join_left(rule, var, entry)
        return join

    def _join_left(self, rule: CompiledRule, var: str,
                   entry: MemoryEntry) -> None:
        """A new α entry of ``var``: join it leftward against the β
        level before its chain position, then cascade rightward."""
        state = self._states[rule.name]
        i = state.order.index(var)
        if i == 0:
            self._cascade(rule, state, 0, {var: entry})
            return
        bindings = Bindings()
        self._bind_entry(bindings, var, entry)
        for left in list(state.betas[i - 1].values()):
            for left_var, left_entry in left.items():
                self._bind_entry(bindings, left_var, left_entry)
            if all(j.evaluate(bindings) is True
                   for j in state.level_conjuncts[i]):
                partial = dict(left)
                partial[var] = entry
                self._cascade(rule, state, i, partial)
            for left_var in left:
                bindings.current.pop(left_var, None)
                bindings.previous.pop(left_var, None)

    def _cascade(self, rule: CompiledRule, state: _ReteState, level: int,
                 partial: dict[str, MemoryEntry]) -> None:
        """Store a surviving partial at ``level`` and extend rightward."""
        key = tuple(partial[v].tid for v in state.order[:level + 1])
        state.betas[level][key] = partial
        if level + 1 == len(state.order):
            self._stamp += 1
            if self._pnodes[rule.name].insert(Match.of(dict(partial)),
                                              self._stamp):
                self._matches_added += 1
                self.on_match(rule)
            return
        next_var = state.order[level + 1]
        conjuncts = state.level_conjuncts[level + 1]
        memory = self._memories[(rule.name, next_var)]
        bindings = Bindings()
        for var, entry in partial.items():
            self._bind_entry(bindings, var, entry)
        candidates, enforced = self._join_candidates(
            memory, next_var, partial, conjuncts, (), None)
        if enforced is not None:
            # the access path already guarantees the probed equi-join
            # conjunct: evaluate only the residual conjuncts
            conjuncts = [j for j in conjuncts if j is not enforced]
        for entry in candidates:
            self._bind_entry(bindings, next_var, entry)
            if all(j.evaluate(bindings) is True for j in conjuncts):
                extended = dict(partial)
                extended[next_var] = entry
                self._cascade(rule, state, level + 1, extended)
            bindings.current.pop(next_var, None)
            bindings.previous.pop(next_var, None)

    def _handle_delete(self, rule: CompiledRule, tid: TupleId) -> None:
        state = self._states.get(rule.name)
        if state is None:
            return
        for level in state.betas:
            doomed = [key for key, partial in level.items()
                      if any(e.tid == tid for e in partial.values())]
            for key in doomed:
                del level[key]

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def beta_entry_count(self, rule_name: str | None = None) -> int:
        """Materialised β partials — the state TREAT avoids entirely."""
        if rule_name is not None:
            return self._states[rule_name].entry_count()
        return sum(s.entry_count() for s in self._states.values())

    def beta_partials(self, rule_name: str):
        for level in self._states[rule_name].betas:
            yield from level.values()

    def beta_chain(self, rule_name: str) -> list[str]:
        return list(self._states[rule_name].order)

    @staticmethod
    def _bind_entry(bindings: Bindings, var: str,
                    entry: MemoryEntry) -> None:
        bindings.current[var] = entry.values
        if entry.old_values is not None:
            bindings.previous[var] = entry.old_values
