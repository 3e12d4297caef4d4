"""Storage-budgeted α-memory materialization (paper §8).

The paper closes by observing that virtual memory nodes open "tremendous
possibilities for optimization, in which the most worthy memory nodes
would be materialized for the best possible performance given the
available storage".  This module is the engine's one stored-vs-virtual
decision, :func:`choose_memories`:

* every pattern (ungated, non-simple) α-memory of a multi-variable rule
  is a *candidate*, with its **storage cost** (how many tuples a stored
  node would hold, counted exactly) and the **benefit** of materializing
  it (the per-probe saving of iterating a stored collection instead of
  scanning — or index-probing — the base relation);
* a budget of stored entries decides: ∞ stores every candidate (TREAT),
  0 none (all-virtual A-TREAT), and a finite budget packs the highest
  benefit-per-entry candidates first (a greedy knapsack).

The network keeps the budget (∞ by default) and plans each activated
rule under what is left of it.  :func:`optimize_memories` sets it and
re-plans the whole rule base, swapping memories in place — which no
P-node, agenda entry or firing notices.  The budget is not checkpointed:
``persist.loads`` and ``Database.recover`` come back all-stored.  Rete,
the stored baseline, takes no finite budget.

Probe frequencies are assumed uniform; a ``weights`` mapping lets
callers bias rules they know fire often.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import MemoryBudgetError
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
    """Deterministic knapsack order: benefit per stored entry
    descending, then (rule name, variable) to break ties stably."""
    worth = choice.benefit_per_probe / max(choice.estimated_entries, 1.0)
    return (-worth, choice.rule_name, choice.var)


def choose_memories(catalog, rules, budget: float,
                    weights: dict[str, float] | None = None
                    ) -> list[MemoryChoice]:
    """Decide the pattern α-memories of ``rules`` under ``budget``
    stored entries: a candidate is stored when the budget is ∞, or when
    it saves probe work and fits in what the more worthy ones left.
    ``weights`` scales the probe benefit per rule name (default 1.0)."""
    stats = Statistics(catalog)     # fresh: cached ones depend on timing
    weights = weights or {}
    candidates: list[MemoryChoice] = []
    for rule in rules:
        if len(rule.variables) == 1:
            continue
        for var in rule.variables:
            spec = rule.specs[var]
            if spec.is_dynamic or spec.is_simple:
                continue
            relation = catalog.relation(spec.relation)
            entries = float(sum(1 for _ in spec.select(relation)))
            # Cost of answering a join probe from this memory:
            #   stored:  iterate the entries
            #   virtual: index probe (log + matches) when an index covers
            #            a join attribute, else scan the whole relation
            virtual_cost = float(len(relation))
            attr = _indexed_join_attr(relation, rule, var)
            if attr is not None:
                matches = entries / max(stats.distinct(spec.relation,
                                                       attr), 1)
                virtual_cost = math.log2(len(relation) + 2) + matches
            benefit = max(virtual_cost - entries, 0.0) \
                * weights.get(rule.name, 1.0)
            candidates.append(MemoryChoice(
                rule.name, var, spec.relation, entries, benefit, False))

    remaining = budget
    chosen: list[MemoryChoice] = []
    for candidate in sorted(candidates, key=_density_key):
        materialize = remaining == math.inf or (
            remaining > 0 and candidate.benefit_per_probe > 0
            and candidate.estimated_entries <= remaining)
        if materialize:
            remaining -= candidate.estimated_entries
        chosen.append(replace(candidate, materialize=materialize))
    return chosen


def plan_memories(db, budget_entries: float,
                  weights: dict[str, float] | None = None) -> MemoryPlan:
    """Choose which pattern α-memories of the active rules to
    materialize within ``budget_entries`` stored entries; a negative or
    NaN budget, or a finite one on a stored-only (Rete) network, raises
    :class:`~repro.errors.MemoryBudgetError`."""
    budget = _checked_budget(db.network, budget_entries)
    return MemoryPlan(budget, choose_memories(
        db.catalog, db.network.rules.values(), budget, weights))


def apply_plan(db, plan: MemoryPlan) -> int:
    """Make the plan's budget the network's and swap each memory whose
    assignment changed (rules no longer active are skipped); returns
    the number of memories swapped."""
    network = db.network
    network.memory_budget = _checked_budget(network, plan.budget)
    return sum(network.set_virtual(c.rule_name, c.var, not c.materialize)
               for c in plan.choices if c.rule_name in network.rules)


def optimize_memories(db, budget_entries: float,
                      weights: dict[str, float] | None = None
                      ) -> MemoryPlan:
    """Plan and apply in one step; returns the plan."""
    plan = plan_memories(db, budget_entries, weights)
    apply_plan(db, plan)
    return plan


def _checked_budget(network, budget_entries) -> float:
    budget = float(budget_entries)
    if not budget >= 0:
        raise MemoryBudgetError(
            f"memory budget must be a non-negative number of α entries "
            f"(or inf), not {budget_entries!r}")
    if network.stored_only and budget < math.inf:
        raise MemoryBudgetError(
            f"the {network.network_name} network stores every α-memory: "
            f"its budget is inf, not {budget_entries!r}")
    return budget


def _indexed_join_attr(relation, rule, var: str) -> str | None:
    """The first of ``var``'s equi-join attributes ``relation`` has an
    index on — the access path a virtual memory's join probe can take —
    or None."""
    for _other, attr, _position in rule.equijoins_by_var.get(var, ()):
        if relation.index_on(attr) is not None:
            return attr
    return None
