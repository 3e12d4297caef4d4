"""Storage-budgeted α-memory materialization (paper §8).

The paper closes by observing that virtual memory nodes open "tremendous
possibilities for optimization, in which the most worthy memory nodes
would be materialized for the best possible performance given the
available storage".  This module implements that optimizer:

* every pattern (ungated, non-simple) α-memory of every active rule is a
  *candidate*, with an estimated **storage cost** (how many tuples a
  stored node would hold) and an estimated **benefit** of materializing
  it (the per-probe saving of iterating a stored collection instead of
  scanning — or index-probing — the base relation);
* a greedy knapsack packs the budget with the highest benefit-per-entry
  candidates;
* the chosen assignment is applied by deactivating and reactivating each
  affected rule under a callable virtual policy that pins the decision.

The estimates come from a fresh :class:`~repro.planner.stats.Statistics`,
not the optimizer's, whose cached estimates depend on when it asked.
Probe frequencies are assumed uniform; a ``weights`` mapping lets
callers bias rules they know fire often.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.planner.stats import Statistics


@dataclass(frozen=True)
class MemoryChoice:
    """The optimizer's verdict for one (rule, variable) memory."""

    rule_name: str
    var: str
    relation: str
    estimated_entries: float
    benefit_per_probe: float
    materialize: bool

    @property
    def worth(self) -> float:
        """Benefit density: per-probe saving per stored entry."""
        return self.benefit_per_probe / max(self.estimated_entries, 1.0)


@dataclass
class MemoryPlan:
    """A complete materialization assignment under a budget."""

    budget: float
    choices: list[MemoryChoice]

    def materialized(self) -> list[MemoryChoice]:
        return [c for c in self.choices if c.materialize]

    def used_budget(self) -> float:
        return sum(c.estimated_entries for c in self.materialized())

    def decision(self, rule_name: str, var: str) -> bool | None:
        for choice in self.choices:
            if choice.rule_name == rule_name and choice.var == var:
                return choice.materialize
        return None

    def __str__(self) -> str:
        lines = [f"memory plan: budget {self.budget:.0f} entries, "
                 f"using {self.used_budget():.0f}"]
        for c in sorted(self.choices, key=_density_key):
            verdict = "stored " if c.materialize else "virtual"
            lines.append(
                f"  {verdict} {c.rule_name}/{c.var} on {c.relation}: "
                f"~{c.estimated_entries:.0f} entries, saves "
                f"{c.benefit_per_probe:.1f}/probe")
        return "\n".join(lines)


def _density_key(choice: MemoryChoice) -> tuple:
    """Deterministic knapsack order: benefit density descending, then
    (rule name, variable) to break ties stably."""
    return (-choice.worth, choice.rule_name, choice.var)


def plan_memories(db, budget_entries: float,
                  weights: dict[str, float] | None = None) -> MemoryPlan:
    """Choose which pattern α-memories to materialize.

    ``budget_entries`` bounds the total stored α entries across all
    rules; ``weights`` optionally scales the probe benefit per rule name
    (how often its memories are consulted, default 1.0).
    """
    stats = Statistics(db.catalog)
    weights = weights or {}
    network = db.manager.network
    candidates: list[MemoryChoice] = []
    for rule in network.rules.values():
        if len(rule.variables) == 1:
            continue
        for var in rule.variables:
            spec = rule.specs[var]
            if spec.is_dynamic or spec.is_simple:
                continue
            relation = db.catalog.relation(spec.relation)
            entries = _entry_estimate(db, stats, spec)
            # Cost of answering a join probe from this memory:
            #   stored:  iterate the entries
            #   virtual: index probe (log + matches) when an index covers
            #            a join attribute, else scan the whole relation
            stored_cost = entries
            virtual_cost = float(len(relation))
            attr = _indexed_join_attr(db, rule, var)
            if attr is not None:
                matches = entries / max(stats.distinct(spec.relation,
                                                       attr), 1)
                virtual_cost = math.log2(len(relation) + 2) + matches
            weight = weights.get(rule.name, 1.0)
            benefit = max(virtual_cost - stored_cost, 0.0) * weight
            candidates.append(MemoryChoice(
                rule.name, var, spec.relation, entries, benefit, False))

    # Greedy knapsack by benefit density.
    remaining = float(budget_entries)
    chosen: list[MemoryChoice] = []
    for candidate in sorted(candidates, key=_density_key):
        materialize = (candidate.benefit_per_probe > 0
                       and candidate.estimated_entries <= remaining)
        if materialize:
            remaining -= candidate.estimated_entries
        chosen.append(MemoryChoice(
            candidate.rule_name, candidate.var, candidate.relation,
            candidate.estimated_entries, candidate.benefit_per_probe,
            materialize))
    return MemoryPlan(float(budget_entries), chosen)


def apply_plan(db, plan: MemoryPlan) -> int:
    """Rebuild the affected rules' networks under the plan's choices.

    Returns the number of rules reactivated.  Each rule is deactivated
    and reactivated with a pinned virtual policy, so its memories are
    re-primed from current data.
    """
    by_rule: dict[str, dict[str, bool]] = {}
    for choice in plan.choices:
        by_rule.setdefault(choice.rule_name, {})[choice.var] = \
            choice.materialize
    reactivated = 0
    original_policy = db.manager.network.virtual_policy
    for rule_name, decisions in by_rule.items():
        record = db.manager.rule(rule_name)
        if not record.active:
            continue

        def pinned(spec, decisions=decisions):
            materialize = decisions.get(spec.var)
            if materialize is None:
                return False
            return not materialize

        db.manager.deactivate(rule_name)
        db.manager.network.virtual_policy = pinned
        try:
            db.manager.activate(rule_name)
        finally:
            db.manager.network.virtual_policy = original_policy
        reactivated += 1
    return reactivated


def optimize_memories(db, budget_entries: float,
                      weights: dict[str, float] | None = None
                      ) -> MemoryPlan:
    """Plan and apply in one step; returns the plan."""
    plan = plan_memories(db, budget_entries, weights)
    apply_plan(db, plan)
    return plan


#: below this relation size the optimizer counts qualifying tuples
#: exactly instead of using the planner's magic-constant selectivities —
#: this is an offline reorganisation, so precision beats speed
_EXACT_COUNT_CAP = 10000


def _entry_estimate(db, stats, spec) -> float:
    relation = db.catalog.relation(spec.relation)
    if len(relation) <= _EXACT_COUNT_CAP:
        return float(sum(1 for _ in spec.select(relation)))
    return stats.scan_cardinality(spec.relation, spec.var,
                                  spec.selection_conjuncts)


def _indexed_join_attr(db, rule, var: str) -> str | None:
    """The first of ``var``'s equi-join attributes its relation has an
    index on — the access path a virtual memory's join probe can take —
    or None."""
    relation = db.catalog.relation(rule.var_relations[var])
    for _other, attr, _position in rule.equijoins_by_var.get(var, ()):
        if relation.index_on(attr) is not None:
            return attr
    return None
