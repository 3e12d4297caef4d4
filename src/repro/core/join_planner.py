"""Adaptive join planning for the TREAT/Rete seek path (paper §8).

The paper's join step walks a *static* variable order; Hanson notes the
recognize phase leaves "tremendous possibilities for optimization".
This module replaces the static ``rule.join_order_from(seed_var)`` with
a cost-driven greedy planner that, at each depth, picks the cheapest
next variable using **live** cardinalities — ``len(memory)`` for stored
α-memories, :class:`~repro.planner.stats.Statistics` estimates for
virtual ones — and strongly prefers variables reachable through a bound
equi-join conjunct (a hash-bucket or index probe) over unfiltered scans.

Planning stays off the hot path by memoizing per cardinality-bucket
signature: the signature buckets each memory's cardinality by its bit
length, so a plan is re-made only when some memory's size changes by
~2x.  The memo is the rule's own (``CompiledRule.join_memo``, with the
``schema_version`` it was built at, like an action plan): relation or
index DDL empties it on the next access, and it leaves with the
compiled rule when the rule leaves the network.  The planner itself
holds no per-rule state.

The TREAT seek is one algorithm — the paper's pairwise walk from the
token's memory through the rule's other α-memories — and the planner
only chooses its order (:meth:`JoinPlanner.order`, memoized under
``("order", seed, signature)``; the network memoizes the compiled seek
beside it under ``("run", seed, signature)``).  The same machinery
plans the Rete β-chain order (:meth:`JoinPlanner.chain_order`),
recomputed whenever a rule's chain is rebuilt from α contents.
"""

from __future__ import annotations

import math

from repro.core.rules import CompiledRule

#: additive cost making a variable with no join conjunct to the bound
#: set (a cartesian step) lose to any connected alternative
_CARTESIAN_COST = 1.0e12


class JoinPlanner:
    """Cost-driven seek ordering over a discrimination network.

    Owned by the network; consulted by the TREAT seek (:meth:`order`)
    and the Rete β-chain rebuild (:meth:`chain_order`).  What it plans
    for a rule is memoized on that rule (:meth:`memo`).
    """

    def __init__(self, network):
        self.network = network
        #: test hook: a callable ``(rule, seed_var) -> list[str]`` that
        #: overrides :meth:`order` entirely (the join-order permutation
        #: property test and the static-baseline benchmark use it)
        self.forced = None

    def memo(self, rule: CompiledRule) -> dict:
        """The rule's join-planning memo — seek orders and compiled
        seeks, β chains and virtual-row estimates — emptied first if
        the catalog's schema version moved since it was built."""
        version = self.network.catalog.schema_version
        if rule.join_memo_version != version:
            rule.join_memo = {}
            rule.join_memo_version = version
        return rule.join_memo

    # ------------------------------------------------------------------
    # the planning entry points
    # ------------------------------------------------------------------

    def order(self, rule: CompiledRule, seed_var: str) -> list[str]:
        """The seek order for one TREAT join step: the rule's remaining
        variables, cheapest-next-first under current cardinalities."""
        if self.forced is not None:
            return list(self.forced(rule, seed_var))
        memo = self.memo(rule)
        key = ("order", seed_var, self._signature(rule, memo))
        order = memo.get(key)
        if order is not None:
            self.network.stats.bump("joins.order_cache_hits")
            return order
        order = memo[key] = self._greedy(rule, {seed_var})
        self.network.stats.bump("joins.orders_planned")
        return order

    def chain_order(self, rule: CompiledRule) -> list[str]:
        """A full variable order for the Rete β chain: the cheapest
        start variable, then the greedy extension order."""
        memo = self.memo(rule)
        key = ("chain", self._signature(rule, memo))
        chain = memo.get(key)
        if chain is not None:
            return chain
        start = min(rule.variables,
                    key=lambda v: (self.rows(rule, v), v))
        chain = memo[key] = [start] + self._greedy(rule, {start})
        if self.network.stats.enabled:
            self.network.stats.bump("joins.chains_planned")
        return chain

    # ------------------------------------------------------------------
    # the greedy cost model
    # ------------------------------------------------------------------

    def _greedy(self, rule: CompiledRule, bound: set[str]) -> list[str]:
        bound = set(bound)
        remaining = [v for v in rule.variables if v not in bound]
        order: list[str] = []
        while remaining:
            best = None
            best_cost = math.inf
            for var in remaining:        # rule.variables is sorted, so
                cost = self._step_cost(rule, var, bound)
                if cost < best_cost:     # ties resolve to the first
                    best, best_cost = var, cost
            remaining.remove(best)
            bound.add(best)
            order.append(best)
        return order

    def _step_cost(self, rule: CompiledRule, var: str,
                   bound: set[str]) -> float:
        """Estimated cost of extending the partial combination by one
        variable: access cost of producing its candidates plus the
        expected candidate count (which the deeper levels multiply)."""
        memory = self.network._memories[(rule.name, var)]
        spec = memory.spec
        stats = self.network.optimizer.stats
        equi = self._bound_equijoin(rule, var, bound)
        if memory.is_virtual:
            relation_rows = float(stats.cardinality(spec.relation))
            rows = self._virtual_rows_estimate(rule, var, spec, stats)
            if equi is not None:
                attr, _position = equi
                output = stats.equijoin_bucket(spec.relation, attr, rows)
                relation = self.network.catalog.relation(spec.relation)
                if relation.index_on(attr) is not None:
                    access = math.log2(relation_rows + 2.0) + output
                else:
                    access = relation_rows
                return access + output
            cost = relation_rows + rows
        else:
            rows = float(len(memory))
            if equi is not None:
                attr, _position = equi
                # hash-bucket fetch: the rule's join graph gave the
                # memory a join index on every equi-join position
                output = stats.equijoin_bucket(spec.relation, attr, rows)
                return 1.0 + 2.0 * output
            cost = 2.0 * rows
        if not self._connected(rule, var, bound):
            cost += _CARTESIAN_COST
        return cost

    def rows(self, rule: CompiledRule, var: str) -> float:
        """Live candidate-count estimate of one memory: the stored
        entry count, or the virtual node's filtered-scan estimate."""
        memory = self.network._memories[(rule.name, var)]
        if memory.is_virtual:
            return self._virtual_rows_estimate(
                rule, var, memory.spec, self.network.optimizer.stats)
        return float(len(memory))

    def _virtual_rows_estimate(self, rule: CompiledRule, var: str,
                               spec, stats) -> float:
        memo = self.memo(rule)
        key = ("rows", var, stats.cardinality(spec.relation).bit_length())
        rows = memo.get(key)
        if rows is None:
            rows = memo[key] = stats.scan_cardinality(
                spec.relation, var, spec.selection_conjuncts)
        return rows

    @staticmethod
    def _bound_equijoin(rule: CompiledRule, var: str,
                        bound: set[str]) -> tuple[str, int] | None:
        """The (attribute, position) of an equi-join conjunct linking
        ``var`` to an already-bound variable, if any."""
        for other, attr, position in rule.equijoins_by_var.get(var, ()):
            if other in bound:
                return attr, position
        return None

    @staticmethod
    def _connected(rule: CompiledRule, var: str, bound: set[str]) -> bool:
        return any(var in j.variables and j.variables & bound
                   for j in rule.joins)

    # ------------------------------------------------------------------
    # signatures
    # ------------------------------------------------------------------

    def _signature(self, rule: CompiledRule, memo: dict
                   ) -> tuple[int, ...]:
        """Cardinality-bucket signature: one log2 bucket per variable,
        so memoized orders survive small size drift but re-plan when a
        memory roughly doubles or halves.  The rule's memories are
        looked up once per memo (a memory swap empties it)."""
        memories = memo.get("memories")
        if memories is None:
            network_memories = self.network._memories
            memories = memo["memories"] = [
                network_memories[(rule.name, var)]
                for var in rule.variables]
        relation = self.network.catalog.relation
        return tuple([
            (len(relation(memory.spec.relation)) if memory.is_virtual
             else len(memory)).bit_length()
            for memory in memories])

    # ------------------------------------------------------------------
    # introspection (the CLI's ``\plan``)
    # ------------------------------------------------------------------

    def describe(self, rule: CompiledRule) -> str:
        """Current join plan of one rule: per-memory storage decision
        and index set, then the seek plan from every seed (TREAT) or
        the β-chain order (Rete).  Planned on a copy of the rule's memo
        with the engine counters off: ``\\plan`` is not token traffic,
        so it moves no ``joins.*`` counter and leaves the memo as it
        was."""
        stats = self.network.stats
        counting = stats.enabled
        memo, version = rule.join_memo, rule.join_memo_version
        stats.enabled = False
        rule.join_memo = dict(memo)
        try:
            return self._describe(rule)
        finally:
            stats.enabled = counting
            rule.join_memo, rule.join_memo_version = memo, version


    def _describe(self, rule: CompiledRule) -> str:
        network = self.network
        stats = network.optimizer.stats
        lines = [f"join plan for rule {rule.name} "
                 f"({network.network_name} network)"]
        for var in rule.variables:
            memory = network._memories[(rule.name, var)]
            spec = memory.spec
            relation = network.catalog.relation(spec.relation)
            if memory.is_virtual:
                rows = self._virtual_rows_estimate(rule, var, spec, stats)
                lines.append(
                    f"  {var} in {spec.relation}: virtual, "
                    f"~{rows:.0f} of {len(relation)} row(s)")
            elif spec.is_simple:
                lines.append(f"  {var} in {spec.relation}: simple "
                             f"(routed straight to the P-node)")
            else:
                names = relation.schema.names()
                indexed = ", ".join(
                    names[p] for p in sorted(memory.join_index_positions()))
                lines.append(
                    f"  {var} in {spec.relation}: stored, "
                    f"{len(memory)} entries, "
                    f"join-index(es) [{indexed}]")
        chain = network.beta_chain(rule.name)
        if len(rule.variables) > 1 and chain is not None:
            lines.append("  beta chain: " + " -> ".join(chain))
        elif len(rule.variables) > 1:
            for seed in rule.variables:
                lines.append(f"  seek from {seed}: "
                             + " -> ".join([seed] + self.order(rule, seed)))
        return "\n".join(lines)
