"""TREAT and A-TREAT: join condition testing without β state.

TREAT (Miranker) keeps only α-memories: when a token enters a rule's
α-memory, the network immediately joins it against the rule's other
α-memories to find the new complete combinations, which go straight to
the P-node.  Negative tokens simply delete from the α-memory and from the
P-node — no β-memory maintenance at all.

**A-TREAT** is this class with the virtual α-memories the §8 storage
budget (``optimize_memories``) leaves: a virtual node stores no tuples,
and the join step scans its base relation with the node's selection
predicate as a filter — sharpened, when a bound equi-join conjunct
allows, by substituting the token's constant and probing an index
(paper §4.2).

Self-join multiplicity (the paper's ProcessedMemories structure): a token
matching several α-memories of one rule is handed to them in a fixed
order.  Stored memories get sequential semantics for free — the token is
not yet in the memories processed later.  Virtual memories answer from
the base relation, where the mutation is already visible to *all* nodes
at once, so while seeking from memory i the token's own tuple is excluded
from any *not-yet-processed* virtual memory of the same rule.  The result
is exactly the paper's invariant: "at every step, a virtual α-memory node
implicitly contains exactly the same set of tokens as a stored α-memory
node", so "if a token joins to itself, it does so exactly the right
number of times".
"""

from __future__ import annotations

from repro.core.alpha import MemoryEntry
from repro.core.leapfrog import multiway_seek
from repro.core.network import DiscriminationNetwork, bound_equijoin
from repro.core.pnode import Match
from repro.core.rules import CompiledRule, VariableSpec
from repro.core.tokens import Token
from repro.lang.expr import Bindings


class TreatNetwork(DiscriminationNetwork):
    """The A-TREAT network (plain TREAT while every memory is stored)."""

    network_name = "A-TREAT"

    def _handle_insert(self, rule: CompiledRule, spec: VariableSpec,
                       memory, entry: MemoryEntry,
                       pending_vars: set[str], token: Token) -> None:
        if not memory.is_virtual:
            if not memory.insert(entry):
                return        # identical entry already present: no-op
        if len(rule.variables) == 1:
            return            # single-variable rules are simple-α routed
        self._seek(rule, spec.var, entry, pending_vars, token)

    def _join_memories(self, rule: CompiledRule,
                       tally: list | None = None) -> None:
        """Seek from every entry of the smallest loaded memory (of the
        smallest virtual one when nothing is stored): each complete
        combination holds exactly one of them, so none is found twice."""
        if rule.has_dynamic_variable:
            return        # only data bound during a transition matches
        memories = self._memories
        rows = self.join_planner.rows
        seed_var = min(rule.variables, key=lambda var: (
            memories[(rule.name, var)].is_virtual, rows(rule, var), var))
        memory = memories[(rule.name, seed_var)]
        if memory.is_virtual:
            relation = self.catalog.relation(memory.spec.relation)
            entries = [MemoryEntry(tid, values) for tid, values
                       in memory.spec.select(relation, tally=tally)]
        else:
            entries = memory.entries()
        stats = self.stats
        counting = stats.enabled
        # Priming is not token propagation: the joins.* / alpha.* /
        # virtual.* counters and the rule's join memo (emptied below)
        # see token traffic only.
        stats.enabled = False
        try:
            # no memory changes size while priming: plan the seek once
            plan = self.join_planner.seek_plan(rule, seed_var)
            for entry in entries:
                self._seek(rule, seed_var, entry, (), None, plan)
        finally:
            stats.enabled = counting
            rule.join_memo = {}
        primed = len(self._pnodes[rule.name])
        if primed:
            stats.bump("pnode.inserts", primed)

    # ------------------------------------------------------------------
    # the TREAT join step
    # ------------------------------------------------------------------

    def _seek(self, rule: CompiledRule, seed_var: str,
              seed_entry: MemoryEntry, pending_vars: set[str],
              token: Token | None, plan: tuple | None = None) -> None:
        """Find every new complete combination seeded by one entry.

        The planner picks the algorithm per (rule, seed): the pairwise
        probe chain of :meth:`_extend` (the default), or the leapfrog
        triejoin for cyclic/many-variable conditions.  Both advance the
        stamp once per complete combination, so agenda recency cannot
        tell them apart.
        """
        stats = self.stats
        if stats.enabled:
            counters = stats.counters
            counters["joins.seeks"] = counters.get("joins.seeks", 0) + 1
        mode, payload = plan or self.join_planner.seek_plan(rule, seed_var)
        if mode == "multiway":
            if stats.enabled:
                stats.bump("joins.multiway_seeks")
            if multiway_seek(self, rule, payload, seed_entry,
                             pending_vars, token):
                self.on_match(rule)
            return
        order = payload
        key = ("steps", seed_var, *order)
        steps = rule.join_memo.get(key)
        if steps is None:
            steps = rule.join_memo[key] = self._steps(rule, seed_var, order)
        partial: dict[str, MemoryEntry] = {seed_var: seed_entry}
        bindings = Bindings()
        self._bind(bindings, seed_var, seed_entry)
        matched = self._extend(rule, steps, 0, partial, bindings,
                               pending_vars, token)
        if matched:
            self.on_match(rule)

    def _steps(self, rule: CompiledRule, seed_var: str,
               order: list[str]) -> list[tuple]:
        """Per depth of the pairwise seek: the variable, its memory, the
        join conjuncts first evaluable there, and — where a stored
        memory answers the step from a join index — the equality probe
        ``(position, bound variable, its position)`` with the conjuncts
        left once the probe enforces its own (memoized in the rule's
        join memo, which memory swaps and priming empty)."""
        steps = []
        bound = {seed_var}
        for var in order:
            memory = self._memories[(rule.name, var)]
            conjuncts = [j for j in rule.joins
                         if var in j.variables and j.variables <= bound
                         | {var}]
            probe = None
            if not memory.is_virtual:
                found = bound_equijoin(var, bound, conjuncts)
                if found is not None:
                    position, other, other_position, enforced = found
                    probe = (position, other, other_position,
                             [j for j in conjuncts if j is not enforced])
            steps.append((var, memory, conjuncts, probe))
            bound.add(var)
        return steps

    def _extend(self, rule: CompiledRule, steps: list[tuple], depth: int,
                partial: dict[str, MemoryEntry], bindings: Bindings,
                pending_vars: set[str], token: Token) -> bool:
        if depth == len(steps):
            self._stamp += 1
            if not self._pnodes[rule.name].insert(
                    Match.of(dict(partial)), self._stamp):
                return False
            self._note_pnode_insert()
            return True
        var, memory, conjuncts, probe = steps[depth]
        if probe is not None:
            position, other, other_position, conjuncts = probe
            candidates = memory.join_probe(
                position, partial[other].values[other_position])
        elif memory.is_virtual:
            candidates, enforced = self._join_candidates(
                memory, var, partial, conjuncts, pending_vars, token)
            if enforced is not None:
                # the sharpened scan already guarantees the probed
                # conjunct: evaluate only the residue
                conjuncts = [j for j in conjuncts if j is not enforced]
        else:
            candidates = memory.entries()
        matched = False
        for entry in candidates:
            self._bind(bindings, var, entry)
            if all(j.evaluate(bindings) is True for j in conjuncts):
                partial[var] = entry
                if self._extend(rule, steps, depth + 1, partial, bindings,
                                pending_vars, token):
                    matched = True
                del partial[var]
            self._unbind(bindings, var, entry)
        return matched

    # ------------------------------------------------------------------

    @staticmethod
    def _bind(bindings: Bindings, var: str, entry: MemoryEntry) -> None:
        bindings.current[var] = entry.values
        if entry.old_values is not None:
            bindings.previous[var] = entry.old_values

    @staticmethod
    def _unbind(bindings: Bindings, var: str, entry: MemoryEntry) -> None:
        bindings.current.pop(var, None)
        bindings.previous.pop(var, None)
