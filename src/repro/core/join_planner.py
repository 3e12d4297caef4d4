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

The same machinery plans the Rete β-chain order
(:meth:`JoinPlanner.chain_order`), recomputed whenever a rule's chain
is rebuilt from α contents.

Beyond *ordering* the pairwise seek, the planner also decides the TREAT
join **algorithm** (:meth:`JoinPlanner.seek_plan`): for cyclic or
many-variable equi-join graphs — where every pairwise order enumerates
a superlinear intermediate — it can route the step to the
worst-case-optimal leapfrog triejoin of :mod:`repro.core.leapfrog`.
The choice is cost-driven, memoized with the orders, and overridable
per Database via ``join_mode``: ``auto`` (default), ``pairwise``, or
``multiway``.  Rete always joins pairwise on its β chain.
"""

from __future__ import annotations

import math

from repro.catalog.schema import AttributeType
from repro.core.leapfrog import (
    build_join_classes, build_plan, equijoin_graph_is_cyclic)
from repro.core.rules import CompiledRule
from repro.errors import RuleError

#: additive cost making a variable with no join conjunct to the bound
#: set (a cartesian step) lose to any connected alternative
_CARTESIAN_COST = 1.0e12

#: under ``auto``, multiway must beat the estimated pairwise cost by
#: this margin — hysteresis against flapping on crude estimates
_MULTIWAY_MARGIN = 0.75

JOIN_MODES = ("auto", "pairwise", "multiway")


def resolve_join_mode(mode: str) -> str:
    """Validate a ``join_mode`` setting."""
    if mode not in JOIN_MODES:
        raise RuleError(f"unknown join mode {mode!r}; expected one of "
                        + ", ".join(repr(m) for m in JOIN_MODES))
    return mode


class _MultiwayShape:
    """Structural multiway facts of one rule, memoized per rule.

    ``candidate`` — the shape where pairwise degrades (cyclic graph, or
    4+ variables) and ``auto`` should weigh multiway at all;
    ``eligible`` — multiway is executable and semantics-preserving
    (every variable reaches an equi-join class, and no class mixes text
    with numeric attributes, which sorted views cannot compare).
    """

    __slots__ = ("classes", "cyclic", "candidate", "eligible", "reason")

    def __init__(self, classes, cyclic, candidate, eligible, reason):
        self.classes = classes
        self.cyclic = cyclic
        self.candidate = candidate
        self.eligible = eligible
        self.reason = reason


class JoinPlanner:
    """Cost-driven seek ordering over a discrimination network.

    Owned by the network; consulted by the TREAT seek
    (:meth:`seek_plan`) and the Rete β-chain rebuild (:meth:`chain_order`).
    What it plans for a rule is memoized on that rule (:meth:`memo`).
    """

    def __init__(self, network, mode: str = "auto"):
        self.network = network
        #: "auto" | "pairwise" | "multiway" (see :func:`resolve_join_mode`)
        self.mode = resolve_join_mode(mode)
        #: test hook: a callable ``(rule, seed_var) -> list[str]`` that
        #: overrides :meth:`order` entirely (the join-order permutation
        #: property test and the static-baseline benchmark use it);
        #: forcing an order also forces the pairwise algorithm
        self.forced = None

    def memo(self, rule: CompiledRule) -> dict:
        """The rule's join-planning memo — seek orders, β chains,
        seek plans, its multiway shape and virtual-row estimates —
        emptied first if the catalog's schema version moved since it
        was built."""
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
            self._order_hit()
            return order
        order = memo[key] = self._greedy(rule, {seed_var})
        if self.network.stats.enabled:
            self.network.stats.bump("joins.orders_planned")
        return order

    def _order_hit(self) -> None:
        stats = self.network.stats
        if stats.enabled:
            counters = stats.counters
            counters["joins.order_cache_hits"] = \
                counters.get("joins.order_cache_hits", 0) + 1

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
    # join-algorithm selection (pairwise chain vs leapfrog multiway)
    # ------------------------------------------------------------------

    def seek_plan(self, rule: CompiledRule,
                  seed_var: str) -> tuple[str, object]:
        """The TREAT join step for one seed: ``("pairwise", order)`` or
        ``("multiway", MultiwayPlan)``.  Pairwise is the default — and
        the only choice for 2-variable rules, forced orders, and
        ``join_mode="pairwise"`` — so acyclic small rules keep the
        plain pairwise seek path.  A memoized pairwise plan counts as
        an order cache hit."""
        if self.forced is not None:
            return ("pairwise", self.order(rule, seed_var))
        memo = self.memo(rule)
        key = ("seek", seed_var, self._signature(rule, memo))
        plan = memo.get(key)
        if plan is None:
            multiway = self._decide(rule, seed_var)
            plan = memo[key] = (
                ("pairwise", self.order(rule, seed_var)) if multiway is None
                else ("multiway", multiway))
        elif plan[0] == "pairwise":
            self._order_hit()
        return plan

    def _decide(self, rule: CompiledRule, seed_var: str):
        """The multiway plan if the rule should take one, else None."""
        if self.mode == "pairwise" or len(rule.variables) < 3:
            return None
        shape = self._shape(rule)
        stats = self.network.stats
        if not shape.eligible or (self.mode != "multiway"
                                  and not shape.candidate):
            if shape.candidate and not shape.eligible and stats.enabled:
                stats.bump("joins.multiway_fallbacks")
            return None
        if self.mode != "multiway":
            pairwise_cost = self._pairwise_cost(rule, seed_var)
            multiway_cost = self._multiway_cost(rule, seed_var, shape)
            if multiway_cost >= pairwise_cost * _MULTIWAY_MARGIN:
                if stats.enabled:
                    stats.bump("joins.multiway_fallbacks")
                return None
        plan = build_plan(rule, seed_var, shape.classes,
                          self._class_order(rule, seed_var, shape))
        if stats.enabled:
            stats.bump("joins.multiway_planned")
        return plan

    def _shape(self, rule: CompiledRule) -> _MultiwayShape:
        memo = self.memo(rule)
        shape = memo.get("shape")
        if shape is None:
            shape = memo["shape"] = self._build_shape(rule)
        return shape

    def _build_shape(self, rule: CompiledRule) -> _MultiwayShape:
        classes = build_join_classes(rule)
        covered: set[str] = set()
        for cls in classes:
            covered.update(cls.positions)
        eligible, reason = True, ""
        if not classes:
            eligible, reason = False, "no equi-join conjuncts"
        elif covered != set(rule.variables):
            missing = ", ".join(sorted(set(rule.variables) - covered))
            eligible, reason = False, \
                f"variable(s) {missing} reach no equi-join"
        elif not self._class_types_compatible(rule, classes):
            eligible, reason = False, \
                "join class mixes text and numeric attributes"
        cyclic = equijoin_graph_is_cyclic(rule)
        candidate = cyclic or len(rule.variables) >= 4
        return _MultiwayShape(classes, cyclic, candidate, eligible,
                              reason)

    def _class_types_compatible(self, rule: CompiledRule,
                                classes) -> bool:
        """Can each class's attributes be compared under one sort
        order?  int/float/bool share Python's numeric ordering; text
        does not mix with them (sorted views would raise TypeError)."""
        catalog = self.network.catalog
        for cls in classes:
            families = set()
            for var, positions in cls.positions.items():
                schema = catalog.relation(
                    rule.specs[var].relation).schema
                for position in positions:
                    families.add(schema.attributes[position].type
                                 is AttributeType.TEXT)
            if len(families) > 1:
                return False
        return True

    def _class_order(self, rule: CompiledRule, seed_var: str,
                     shape: _MultiwayShape) -> list[int]:
        """Level order for the classes the seed does not fix: smallest
        estimated participant first, class index as the tie-break."""
        remaining = [cls for cls in shape.classes
                     if seed_var not in cls.positions]
        return [cls.index for cls in sorted(
            remaining,
            key=lambda cls: (min(self.rows(rule, var)
                                 for var in cls.positions),
                             cls.index))]

    def _pairwise_cost(self, rule: CompiledRule, seed_var: str) -> float:
        """Simulated cost of the pairwise seek: each step's access
        cost scaled by the expected fan-out of the steps before it."""
        bound = {seed_var}
        fanout, total = 1.0, 0.0
        for var in self.order(rule, seed_var):
            total += fanout * self._step_cost(rule, var, bound)
            fanout *= max(self._expected_out(rule, var, bound), 0.5)
            bound.add(var)
        return total

    def _multiway_cost(self, rule: CompiledRule, seed_var: str,
                       shape: _MultiwayShape) -> float:
        """Leapfrog cost: per level, every participant's restricted
        view is built (linear in its restricted size, plus a galloping
        log factor), and the intersection's output — the next level's
        fan-out — is bounded by the smallest view."""
        stats = self.network.optimizer.stats
        constrained: set[str] = set()
        for cls in shape.classes:
            if seed_var in cls.positions:
                constrained.update(v for v in cls.positions
                                   if v != seed_var)
        total, fanout = 0.0, 1.0
        for class_index in self._class_order(rule, seed_var, shape):
            cls = shape.classes[class_index]
            ests = []
            for var in sorted(cls.positions):
                rows = self.rows(rule, var)
                if var in constrained:
                    spec = rule.specs[var]
                    attr = self._attr_name(rule, var,
                                           cls.positions[var][0])
                    rows = stats.equijoin_bucket(spec.relation, attr,
                                                 rows)
                ests.append(max(rows, 0.5))
            total += fanout * (sum(ests) + math.log2(max(ests) + 2.0))
            fanout *= max(min(ests), 0.5)
            constrained.update(cls.positions)
        return total

    def _expected_out(self, rule: CompiledRule, var: str,
                      bound: set[str]) -> float:
        """Expected candidates one pairwise step emits per upstream
        combination."""
        rows = self.rows(rule, var)
        equi = self._bound_equijoin(rule, var, bound)
        if equi is not None:
            return self.network.optimizer.stats.equijoin_bucket(
                rule.specs[var].relation, equi[0], rows)
        return rows

    def _attr_name(self, rule: CompiledRule, var: str,
                   position: int) -> str:
        relation = self.network.catalog.relation(
            rule.specs[var].relation)
        return relation.schema.attributes[position].name

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
            if len(rule.variables) >= 3 and self.mode != "pairwise" \
                    and self.forced is None:
                shape = self._shape(rule)
                graph = "cyclic" if shape.cyclic else "acyclic"
                note = "" if shape.eligible \
                    else f" — pairwise only ({shape.reason})"
                lines.append(
                    f"  multiway: {graph} equi-join graph, "
                    f"{len(shape.classes)} join class(es), "
                    f"mode={self.mode}{note}")
            for seed in rule.variables:
                mode, payload = self.seek_plan(rule, seed)
                if mode == "multiway":
                    lines.append(f"  seek from {seed}: "
                                 + self._describe_multiway(rule,
                                                           payload))
                else:
                    lines.append(f"  seek from {seed}: "
                                 + " -> ".join([seed] + payload))
        return "\n".join(lines)

    def _describe_multiway(self, rule: CompiledRule, plan) -> str:
        """One-line rendering of a multiway plan: the leapfrog level
        sequence with each participant's iterator source, then the
        emission order."""
        network = self.network
        parts = []
        for level in plan.levels:
            sources = []
            for level_var in level.vars:
                memory = network._memories[(rule.name, level_var.var)]
                attr = self._attr_name(rule, level_var.var,
                                       level_var.positions[0])
                if memory.is_virtual:
                    source = "virtual scan"
                elif level_var.constraints:
                    source = "restricted probe"
                else:
                    source = "memory scan"
                sources.append(f"{level_var.var}.{attr} via {source}")
            parts.append("leapfrog[" + " & ".join(sources) + "]")
        for var, _constraints in plan.prefixed:
            parts.append(f"{var} via restricted probe")
        emit = " -> ".join(plan.emit_order)
        levels = "; ".join(parts) if parts else "seed-fixed"
        return f"multiway from {plan.seed_var}: {levels}; emit {emit}"
