"""The cost-based query optimizer.

Planning proceeds exactly as in System R's lineage: the WHERE clause is
split into conjuncts; single-variable conjuncts are pushed down and drive
access-path selection (an index point probe, a B-tree range scan,
otherwise a sequential scan with the predicate inlined) — a bound is an
expression, so a literal, a constant expression and a ``$param`` plan
the same way; multi-variable conjuncts rank join orders, enumerated
bottom-up over left-deep trees by dynamic programming (greedy beyond 8
inputs).  Join methods considered: index
nested loop (when the new input has an index on an equi-join attribute),
hash join, and plain nested loop.  The paper's optimizer could have
chosen a sort-merge join instead of Figure 8's nested loop; this engine
has none, because over in-memory inputs a hash join answers the same
equi-join without sorting either side, so a merge join never costs less.

The same entry point plans rule actions: the rule-action planner passes a
:class:`~repro.planner.plans.PnodeScan` as a *seed* input binding all of
the rule's shared tuple variables at once, and "the rest of the query plan
is constructed as usual by the query optimizer" (paper section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.catalog.catalog import Catalog
from repro.errors import PlanError
from repro.executor.kernel import compile_kernel
from repro.lang import ast_nodes as ast
from repro.lang.expr import (
    Bindings, compile_expr, contains_params, is_true, variables_of)
from repro.lang.predicates import (
    analyze_bounds, build_condition_graph, conjoin, equijoin_of_conjunct)
from repro.planner import cost as costs
from repro.planner.plans import (
    EmptyPlan, FilterPlan, HashJoin, IndexProbe, IndexScan,
    NestedLoopJoin, Plan, SeqScan, SingletonPlan)
from repro.planner.stats import Statistics

#: dynamic programming is exact up to this many join inputs
_DP_LIMIT = 8


@dataclass
class PlannedCommand:
    """A command together with its chosen plan and resolved scope."""

    command: ast.Command
    plan: Plan
    scope: dict[str, str]
    #: the executor's compiled target lists, built on the first run
    evaluators: object = None
    #: the statement kernel's closure (None: the iterator tree runs);
    #: built with the plan, so whatever re-plans rebuilds it
    kernel: Callable | None = None


@dataclass
class _Input:
    """One join-order input: a plan fragment binding some variables."""

    vars: frozenset[str]
    plan: Plan
    cost: float
    rows: float
    #: base relation of a single-variable leaf (None for seeds/joins);
    #: used to consider index nested-loop probes against this input.
    relation: str | None = None
    var: str | None = None
    #: selection conjuncts already applied (residuals included)
    indexable: bool = True


class Optimizer:
    """Builds physical plans for analyzed commands."""

    def __init__(self, catalog: Catalog,
                 statistics: Statistics | None = None):
        self.catalog = catalog
        self.stats = statistics or Statistics(catalog)

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def plan_command(self, command: ast.Command,
                     seed: Plan | None = None,
                     seed_rows: float = 1.0) -> PlannedCommand:
        """Plan a DML command (optionally seeded with a P-node scan)."""
        scope: dict[str, str] = dict(
            getattr(command, "resolved_scope", {}) or {})
        if isinstance(command, ast.Append):
            needed = self._append_vars(command)
        elif isinstance(command, ast.Delete):
            needed = self._where_vars(command) | {command.target_var}
            needed |= {f.var for f in command.from_items}
        elif isinstance(command, ast.Replace):
            needed = self._where_vars(command) | {command.target_var}
            for col in command.assignments:
                needed |= variables_of(col.expr)
            needed |= {f.var for f in command.from_items}
        elif isinstance(command, ast.Retrieve):
            needed = self._where_vars(command)
            for col in command.targets:
                needed |= variables_of(col.expr)
            for key in command.sort_keys:
                needed |= variables_of(key.expr)
            needed |= {f.var for f in command.from_items}
        else:
            raise PlanError(
                f"cannot plan {type(command).__name__}")
        plan = self.plan_variables(sorted(needed), command.where, scope,
                                   seed=seed, seed_rows=seed_rows)
        planned = PlannedCommand(command, plan, scope)
        planned.kernel = compile_kernel(planned, self.catalog)
        return planned

    def plan_variables(self, variables: list[str],
                       where: ast.Expr | None,
                       scope: dict[str, str],
                       seed: Plan | None = None,
                       seed_rows: float = 1.0) -> Plan:
        """Plan the evaluation of ``where`` over the given variables.

        ``seed`` pre-binds ``seed.vars`` (a P-node scan); remaining
        variables come from base-relation scans.
        """
        seed_vars = frozenset(seed.vars) if seed is not None else frozenset()
        unknown = set(variables) - set(scope) - set(seed_vars)
        if unknown:
            raise PlanError(f"variables with no relation: {sorted(unknown)}")
        graph = build_condition_graph(
            where, sorted(set(variables) | set(seed_vars)))

        # Variable-free conjuncts without parameters evaluate once: any
        # non-True kills the command.  Parameterized ones can only be
        # decided at execution time, so they become a runtime filter over
        # the finished plan.
        dynamic_constants = []
        for conjunct in graph.constants:
            if contains_params(conjunct):
                dynamic_constants.append(conjunct)
            elif not is_true(compile_expr(conjunct)(Bindings())):
                return EmptyPlan()

        def finish(plan: Plan) -> Plan:
            if dynamic_constants:
                return FilterPlan(plan, conjoin(dynamic_constants))
            return plan

        inputs: list[_Input] = []
        if seed is not None:
            seed_conjuncts = [
                c for v in seed_vars for c in graph.selections.get(v, [])]
            seed_conjuncts += [
                j for j in graph.joins
                if variables_of(j) <= seed_vars]
            plan: Plan = seed
            if seed_conjuncts:
                plan = FilterPlan(plan, conjoin(seed_conjuncts))
            inputs.append(_Input(frozenset(seed_vars), plan,
                                 cost=max(seed_rows, 1.0),
                                 rows=max(seed_rows * (0.5 if seed_conjuncts
                                                       else 1.0), 0.1)))

        for var in variables:
            if var in seed_vars:
                continue
            inputs.append(self._leaf(var, scope[var],
                                     graph.selections.get(var, [])))
        if not inputs:
            return finish(SingletonPlan())

        join_conjuncts = [j for j in graph.joins
                          if not variables_of(j) <= seed_vars]
        best = self._order_joins(inputs, join_conjuncts, scope)
        return finish(best.plan)

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------

    def _leaf(self, var: str, relation_name: str,
              conjuncts: list[ast.Expr]) -> _Input:
        relation = self.catalog.relation(relation_name)
        anchor, residual = analyze_bounds(conjuncts, var)
        out_rows = self.stats.scan_cardinality(relation_name, var,
                                               conjuncts)
        best_cost, _ = costs.seq_scan_cost(len(relation), out_rows)
        best_plan: Plan = SeqScan(relation_name, var, conjoin(conjuncts))
        if anchor is not None:
            # The access path is fixed at plan time; its key or bounds
            # resolve per execution (literal, constant or parameter).
            point = anchor.eq is not None
            index = ((point and relation.index_on(anchor.attr, "hash"))
                     or relation.index_on(anchor.attr, "btree"))
            idx_cost, _ = costs.index_scan_cost(out_rows)
            # a point probe wins a tie (an empty relation), a range not
            if index is not None and (idx_cost < best_cost or point
                                      and idx_cost == best_cost):
                best_cost = idx_cost
                best_plan = (
                    IndexProbe(relation_name, var, index.name, anchor.eq,
                               residual) if point else
                    IndexScan(relation_name, var, index.name,
                              anchor.low, anchor.low_closed,
                              anchor.high, anchor.high_closed, residual))
        return _Input(frozenset([var]), best_plan, best_cost, out_rows,
                      relation_name, var)

    # ------------------------------------------------------------------
    # join ordering
    # ------------------------------------------------------------------

    def _order_joins(self, inputs: list[_Input],
                     join_conjuncts: list[ast.Expr],
                     scope: dict[str, str]) -> _Input:
        if len(inputs) == 1:
            leftover = list(join_conjuncts)
            result = inputs[0]
            if leftover:
                result = _Input(result.vars,
                                FilterPlan(result.plan, conjoin(leftover)),
                                result.cost, result.rows)
            return result
        if len(inputs) <= _DP_LIMIT:
            return self._order_dp(inputs, join_conjuncts, scope)
        return self._order_greedy(inputs, join_conjuncts, scope)

    def _order_dp(self, inputs: list[_Input],
                  join_conjuncts: list[ast.Expr],
                  scope: dict[str, str]) -> _Input:
        n = len(inputs)
        full = (1 << n) - 1
        table: dict[int, _Input] = {}
        for i, item in enumerate(inputs):
            table[1 << i] = item
        for mask in range(1, full + 1):
            if mask not in table:
                continue
            current = table[mask]
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                candidate = self._join(current, inputs[j],
                                       join_conjuncts, scope)
                key = mask | bit
                existing = table.get(key)
                if existing is None or candidate.cost < existing.cost:
                    table[key] = candidate
        return table[full]

    def _order_greedy(self, inputs: list[_Input],
                      join_conjuncts: list[ast.Expr],
                      scope: dict[str, str]) -> _Input:
        remaining = sorted(inputs, key=lambda i: i.rows)
        current = remaining.pop(0)
        while remaining:
            best_index = 0
            best: _Input | None = None
            for i, item in enumerate(remaining):
                candidate = self._join(current, item, join_conjuncts,
                                       scope)
                if best is None or candidate.cost < best.cost:
                    best, best_index = candidate, i
            remaining.pop(best_index)
            current = best
        return current

    def _join(self, left: _Input, right: _Input,
              join_conjuncts: list[ast.Expr],
              scope: dict[str, str]) -> _Input:
        both = left.vars | right.vars
        applicable = [c for c in join_conjuncts
                      if variables_of(c) <= both
                      and not variables_of(c) <= left.vars
                      and not variables_of(c) <= right.vars]
        selectivity = 1.0
        for conjunct in applicable:
            selectivity *= self.stats.join_selectivity(conjunct, scope)
        out_rows = max(left.rows * right.rows * selectivity, 0.0)

        equis = []
        for conjunct in applicable:
            equi = equijoin_of_conjunct(conjunct)
            if equi is None:
                continue
            if equi.left_var in left.vars:
                equis.append((conjunct, equi))
            elif equi.right_var in left.vars:
                equis.append((conjunct, equi.reversed()))

        predicate = conjoin(applicable)
        best_plan: Plan = NestedLoopJoin(left.plan, right.plan, predicate)
        best_cost, _ = costs.nested_loop_cost(left.cost, left.rows,
                                              right.cost, out_rows)

        if equis:
            left_keys = []
            right_keys = []
            for conjunct, equi in equis:
                left_keys.append(ast.AttrRef(
                    equi.left_var, equi.left_attr,
                    position=equi.left_position))
                right_keys.append(ast.AttrRef(
                    equi.right_var, equi.right_attr,
                    position=equi.right_position))
            equi_ids = {id(e[0]) for e in equis}
            residual = conjoin(
                [c for c in applicable if id(c) not in equi_ids])

            hash_cost, _ = costs.hash_join_cost(
                left.cost, left.rows, right.cost, right.rows, out_rows)
            if hash_cost < best_cost:
                best_cost = hash_cost
                best_plan = HashJoin(left.plan, right.plan, left_keys,
                                     right_keys, residual)

            probe_plan = self._index_probe(right, equis, applicable)
            if probe_plan is not None:
                matches = max(out_rows / max(left.rows, 1.0), 0.0)
                probe_cost, _ = costs.index_nlj_cost(
                    left.cost, left.rows, matches, out_rows)
                if probe_cost < best_cost:
                    best_cost = probe_cost
                    best_plan = NestedLoopJoin(left.plan, probe_plan, None)

        return _Input(both, best_plan, best_cost, max(out_rows, 0.1))

    def _index_probe(self, right: _Input, equis, applicable
                     ) -> Plan | None:
        """An IndexProbe replacement for a single-variable right leaf
        (only a SeqScan leaf: an index leaf keeps its own access path)."""
        if right.relation is None or not isinstance(right.plan, SeqScan):
            return None
        relation = self.catalog.relation(right.relation)
        for conjunct, equi in equis:
            if equi.right_var != right.var:
                continue
            index = (relation.index_on(equi.right_attr, "hash")
                     or relation.index_on(equi.right_attr, "btree"))
            if index is None:
                continue
            key = ast.AttrRef(equi.left_var, equi.left_attr,
                              position=equi.left_position)
            residual_parts = [c for c in applicable if c is not conjunct]
            if right.plan.predicate_expr is not None:
                residual_parts.append(right.plan.predicate_expr)
            return IndexProbe(right.relation, right.var, index.name, key,
                              conjoin(residual_parts))
        return None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _where_vars(command) -> set[str]:
        if command.where is None:
            return set()
        return variables_of(command.where)

    @staticmethod
    def _append_vars(command: ast.Append) -> set[str]:
        out = set()
        for col in command.targets:
            out |= variables_of(col.expr)
        out |= {f.var for f in command.from_items}
        if command.where is not None:
            out |= variables_of(command.where)
        return out
