"""The statement kernel: a plan of one access step, compiled to a closure.

Every data command is a planned query, rule actions included (query
modification, paper section 5), but for a point retrieve / delete /
replace through an equality IndexProbe, an append of constants and
parameters, or a rule action's append over its consumed matches (a bare
PnodeScan), the iterator tree costs more than the work.
:func:`compile_kernel` compiles those shapes into ``kernel(ctx,
params)``, which ``Executor.run`` calls instead: the same expressions in
the same order, the same hooks, relation and index resolved per call.
Other plans run on the iterator executor, the kernel's test reference.
"""

from __future__ import annotations

from repro.executor.executor import (
    DmlResult, ResultSet, apply_deletes, apply_replaces, compile_append,
    compile_assignments, compile_retrieve)
from repro.lang import ast_nodes as ast
from repro.lang.expr import Bindings
from repro.planner.plans import PNODE, IndexProbe, PnodeScan, SingletonPlan


def compile_kernel(planned, catalog):
    """``kernel(ctx, params)`` for a shape the kernel covers, else None."""
    command, plan = planned.command, planned.plan
    shape = type(plan)
    if isinstance(command, ast.Append):
        if catalog.has_relation(command.relation) and (
                shape is SingletonPlan
                or shape is PnodeScan and plan.predicate_expr is None):
            return _append(command.relation, compile_append(
                command, catalog.relation(command.relation).schema),
                shape is PnodeScan)
        return None
    if shape is not IndexProbe:
        return None
    if isinstance(command, ast.Retrieve):
        columns, evaluators, _ = compile_retrieve(command)
        if (evaluators is None or command.sort_keys or command.unique
                or command.into is not None):
            return None

        def retrieve(ctx, params):
            bound = Bindings(params=params)
            return ResultSet(columns, [
                tuple([ev(bound) for ev in evaluators])
                for _ in plan.qualifying(ctx, bound)])
        return retrieve
    if command.target_var != plan.var:          # a delete or a replace
        return None
    if isinstance(command, ast.Delete):
        def delete(ctx, params):
            tids = list(plan.qualifying(ctx, Bindings(params=params)))
            return apply_deletes(
                ctx.hooks, ctx.catalog.relation(plan.relation), tids)
        return delete
    assignments = compile_assignments(
        command, catalog.relation(plan.relation).schema)

    def replace(ctx, params):
        relation = ctx.catalog.relation(plan.relation)
        bound = Bindings(params=params)
        return apply_replaces(ctx.hooks, relation, [
            (tid, [(pos, ev(bound)) for pos, ev in assignments])
            for tid in plan.qualifying(ctx, bound)])
    return replace


def _append(name: str, row, per_match: bool):
    """An append of one row, or (``per_match``) of one row per match a
    rule firing consumed."""
    def append(ctx, params):
        ctx.catalog.relation(name)
        bound = Bindings(params=params)
        if not per_match:
            rows = [row(bound)]
        else:
            current, previous = bound.current, bound.previous
            rows = []
            for match in params[PNODE]:
                for var, entry in match.bindings:
                    current[var] = entry.values
                    if entry.old_values is None:
                        previous.pop(var, None)
                    else:
                        previous[var] = entry.old_values
                rows.append(row(bound))
        for values in rows:
            ctx.hooks.insert(name, values)
        return DmlResult(len(rows))
    return append
