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

from operator import call, itemgetter

from repro.core.alpha import MemoryEntry
from repro.core.network import DiscriminationNetwork, bound_equijoin
from repro.core.pnode import Match
from repro.core.rules import CompiledRule
from repro.core.tokens import Token
from repro.lang.expr import Bindings

_tid = itemgetter(0)


class TreatNetwork(DiscriminationNetwork):
    """The A-TREAT network (plain TREAT while every memory is stored)."""

    network_name = "A-TREAT"

    def _join_step(self, rule: CompiledRule, memory):
        return self._seeker(rule, memory.spec.var)

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
        added = self._matches_added
        # Priming is not token propagation: the joins.* / alpha.* /
        # virtual.* counters and the rule's join memo (emptied below)
        # see token traffic only.
        stats.enabled = False
        try:
            # no memory changes size while priming: plan the seek once
            run = self._compile_seek(
                rule, seed_var, self.join_planner.order(rule, seed_var))
            on_match = self.on_match
            for entry in entries:
                if run((entry,), None):
                    on_match(rule)
        finally:
            stats.enabled = counting
            rule.join_memo = {}
            self._matches_added = added
        primed = len(self._pnodes[rule.name])
        if primed:
            stats.bump("pnode.inserts", primed)

    # ------------------------------------------------------------------
    # the TREAT join step
    # ------------------------------------------------------------------

    def _seeker(self, rule: CompiledRule, seed_var: str):
        """``seek(entry, token)``: find every new complete combination
        seeded by one (stored) entry of ``seed_var``'s memory.

        The pairwise seek in the order the planner chose for the rule's
        current cardinality signature is compiled once
        (:meth:`_compile_seek`) and memoized in the rule's join memo
        under ``("run", seed_var, signature)``, so a seek costs one
        signature and one memo lookup; a memoized seek counts as an
        order cache hit."""
        stats, catalog, planner = self.stats, self.catalog, self.join_planner
        on_match = self.on_match

        def seek(entry: MemoryEntry, token: Token | None) -> None:
            memo = rule.join_memo
            if rule.join_memo_version != catalog.schema_version:
                memo = planner.memo(rule)
            sizers = memo.get("sizers")
            if sizers is None or planner.forced is not None:
                run = None
            else:
                run = memo.get(("run", seed_var, tuple(
                    map(int.bit_length, map(call, sizers)))))
            if stats.enabled:
                counters = stats.counters
                counters["joins.seeks"] = counters.get("joins.seeks", 0) + 1
                if run is not None:
                    counters["joins.order_cache_hits"] = \
                        counters.get("joins.order_cache_hits", 0) + 1
            if run is None:
                run = self._plan_seek(rule, seed_var)
            if run((entry,), token):
                on_match(rule)
        return seek

    def _plan_seek(self, rule: CompiledRule, seed_var: str):
        """Plan and compile the seek from ``seed_var`` for the rule's
        current cardinality signature, memoized unless a forced order
        is in effect; the compiled ``run``."""
        planner = self.join_planner
        run = self._compile_seek(rule, seed_var,
                                 planner.order(rule, seed_var))
        if planner.forced is None:
            memo = rule.join_memo
            sizers = memo.get("sizers")
            if sizers is None:
                sizers = memo["sizers"] = self._sizers(rule)
            memo[("run", seed_var, tuple(
                map(int.bit_length, map(call, sizers))))] = run
        return run

    def _sizers(self, rule: CompiledRule) -> list:
        """Per variable, a callable answering the size the planner's
        cardinality signature buckets: a stored memory's entry count,
        a virtual memory's relation size."""
        sizers = []
        for var in rule.variables:
            memory = self._memories[(rule.name, var)]
            sizers.append(
                self.catalog.relation(memory.spec.relation).__len__
                if memory.is_virtual else memory.sizer())
        return sizers

    def _compile_seek(self, rule: CompiledRule, seed_var: str,
                      order: list[str]):
        """``run((entry,), token)``: the seek from ``seed_var`` through
        ``order``, compiled; True when the P-node gained a match."""
        names = [seed_var, *order]
        binding = sorted(names)
        arrange = itemgetter(*[names.index(var) for var in binding])
        step = self._emitter(rule, binding, arrange)
        steps = self._steps(rule, seed_var, order)
        for depth in range(len(steps) - 1, -1, -1):
            step = self._compile_step(names[:depth + 1], steps[depth],
                                      step)
        return step

    def _emitter(self, rule: CompiledRule, binding: list[str], arrange):
        """The last step: a complete combination, its Match built in
        binding order with its P-node key, one stamp each."""
        network, pnode = self, self._pnodes[rule.name]

        def emit(partial: tuple, token) -> bool:
            network._stamp += 1
            entries = arrange(partial)
            if pnode.add(tuple(map(_tid, entries)),
                         Match(tuple(zip(binding, entries))),
                         network._stamp):
                network._matches_added += 1
                return True
            return False
        return emit

    def _compile_step(self, bound: list[str], step: tuple, extend):
        """One depth of the pairwise seek: ``step(partial, token)``
        extends the entries bound so far (``partial``, in ``bound``
        order) by every candidate of the step's variable that passes the
        conjuncts first evaluable there, calling ``extend`` on each."""
        var, memory, conjuncts, probe = step
        stats = self.stats
        if probe is not None:
            position, other, other_position, rest = probe
            buckets = memory.join_buckets(position)
            at = bound.index(other)

            def probe_step(partial: tuple, token) -> bool:
                if stats.enabled:
                    counters = stats.counters
                    counters["alpha.join_probes"] = \
                        counters.get("alpha.join_probes", 0) + 1
                bucket = buckets.get(partial[at].values[other_position])
                if not bucket:
                    return False
                if rest:
                    return _each(list(bucket.values()), var, bound,
                                 partial, token, rest, extend)
                matched = False
                for entry in list(bucket.values()):
                    if extend(partial + (entry,), token):
                        matched = True
                return matched
            return probe_step
        if not memory.is_virtual:
            def scan_step(partial: tuple, token) -> bool:
                return _each(memory.entries(), var, bound, partial, token,
                             conjuncts, extend)
            return scan_step
        network = self

        def virtual_step(partial: tuple, token) -> bool:
            candidates, enforced = network._join_candidates(
                memory, var, dict(zip(bound, partial)), conjuncts,
                network._pending, token)
            checks = conjuncts if enforced is None else [
                j for j in conjuncts if j is not enforced]
            return _each(candidates, var, bound, partial, token, checks,
                         extend)
        return virtual_step

    def _steps(self, rule: CompiledRule, seed_var: str,
               order: list[str]) -> list[tuple]:
        """Per depth of the pairwise seek: the variable, its memory, the
        join conjuncts first evaluable there, and — where a stored
        memory answers the step from a join index — the equality probe
        ``(position, bound variable, its position)`` with the conjuncts
        left once the probe enforces its own."""
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


def _each(candidates, var: str, bound: list[str], partial: tuple, token,
          checks, extend) -> bool:
    """Extend ``partial`` by every candidate of ``var`` passing
    ``checks`` (join conjuncts, evaluated over the bound entries)."""
    matched = False
    if not checks:
        for entry in candidates:
            if extend(partial + (entry,), token):
                matched = True
        return matched
    bindings = Bindings()
    current, previous = bindings.current, bindings.previous
    for name, entry in zip(bound, partial):
        current[name] = entry.values
        if entry.old_values is not None:
            previous[name] = entry.old_values
    for entry in candidates:
        current[var] = entry.values
        if entry.old_values is None:
            previous.pop(var, None)
        else:
            previous[var] = entry.old_values
        if all(j.evaluate(bindings) is True for j in checks) \
                and extend(partial + (entry,), token):
            matched = True
    return matched
