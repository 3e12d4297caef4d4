"""The statement kernel: a plan of one access step, compiled to a closure.

Every data command is a planned query, rule actions included (query
modification, paper section 5), but for a point retrieve / delete /
replace through an equality IndexProbe, a delete over a sequential
scan, an append of constants and parameters, or a rule action's
``append to R(...)`` over its consumed matches (a bare PnodeScan), the
iterator tree costs more than the work.  :func:`compile_kernel`
compiles those shapes into ``kernel(ctx, params)``, which
``Executor.run`` calls instead: the same expressions in the same order,
the same hooks, relation and index resolved per call.  Other plans run
on the iterator executor, the kernel's test reference.

A rule action's append inserts its rows as one Δ-set
(:meth:`~repro.executor.executor.MutationHooks.insert_many`).  When the
schemas prove that every target is a same-typed attribute of a matched
tuple or a constant its column stores unchanged, the rows are read
straight off the matches and skip coercion; that proof is made here, at
plan time, and made again whenever the plan is rebuilt.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter

from repro.errors import ArielError
from repro.executor.executor import (
    DmlResult, ResultSet, apply_deletes, apply_replaces, compile_append,
    compile_assignments, compile_retrieve)
from repro.lang import ast_nodes as ast
from repro.lang.expr import Bindings
from repro.planner.plans import (
    PNODE, IndexProbe, PnodeScan, SeqScan, SingletonPlan)
from repro.storage.heap import new_tid


def compile_kernel(planned, catalog):
    """``kernel(ctx, params)`` for a shape the kernel covers, else None."""
    command, plan = planned.command, planned.plan
    shape = type(plan)
    if isinstance(command, ast.Append):
        if not catalog.has_relation(command.relation) or not (
                shape is SingletonPlan
                or shape is PnodeScan and plan.predicate_expr is None):
            return None
        schema = catalog.relation(command.relation).schema
        if shape is SingletonPlan:
            return _append(command.relation, compile_append(command, schema))
        typed = _typed_sources(command, schema, planned.scope,
                               sorted(plan.vars), catalog)
        if typed is not None:
            return _append_typed(command.relation, *typed)
        return _append_per_match(command.relation,
                                 compile_append(command, schema))
    if shape is SeqScan:
        if isinstance(command, ast.Delete) \
                and command.target_var == plan.var:
            return _delete_scanned(plan)
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


def _append(name: str, row):
    """An append of one row of constants and parameters."""
    def append(ctx, params):
        ctx.catalog.relation(name)
        ctx.hooks.insert(name, row(Bindings(params=params)))
        return DmlResult(1)
    return append


def _append_per_match(name: str, row):
    """An append of one evaluated row per match a rule firing consumed,
    inserted as one Δ-set."""
    def append(ctx, params):
        ctx.catalog.relation(name)
        bound = Bindings(params=params)
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
        ctx.hooks.insert_many(name, rows)
        return DmlResult(len(rows))
    return append


def _append_typed(name: str, sources: list[tuple], arities: list[int]):
    """An append whose rows are read off the matches, already typed:
    ``sources`` holds per column ``(constant, -1, 0)`` or ``(None,
    binding index, attribute position)``, and ``arities`` each bound
    tuple's width.  A row is one ``itemgetter`` over the constants
    followed by every bound tuple's values."""
    constants = tuple(c for c, i, _ in sources if i < 0)
    starts, offset = [], len(constants)
    for arity in arities:
        starts.append(offset)
        offset += arity
    positions, k = [], 0
    for _, i, pos in sources:
        if i < 0:
            positions.append(k)
            k += 1
        else:
            positions.append(starts[i] + pos)
    pick = itemgetter(*positions) if len(positions) > 1 else (
        lambda flat, p=positions[0]: (flat[p],))

    def append(ctx, params):
        rows = [pick(sum(map(_values, map(_entry, match.bindings)),
                         constants))
                for match in params[PNODE]]
        ctx.hooks.insert_many(name, rows, True)
        return DmlResult(len(rows))
    return append


_entry = itemgetter(1)
_values = attrgetter("values")


def _typed_sources(command: ast.Append, schema, scope: dict,
                   variables: list[str], catalog) -> tuple | None:
    """Where each column of a rule action's appended row comes from, if
    no value needs evaluating or coercing: a non-``previous`` attribute
    of a matched tuple whose type is the column's, or a constant the
    column's coercer returns unchanged (an unnamed column is null) —
    with the width of every matched tuple.  ``variables`` are the
    P-node's, in :class:`~repro.core.pnode.Match` binding order.  None
    when any target is something else, or a variable is out of
    scope."""
    targets = command.targets
    if targets and targets[0].name is not None:
        last = {col.name: col.expr for col in targets}
        exprs = [last.get(attr.name, ast.Const(None)) for attr in schema]
    else:
        exprs = [col.expr for col in targets]
    if len(exprs) != len(schema) or any(var not in scope
                                        for var in variables):
        return None
    arities = [len(catalog.relation(scope[var]).schema)
               for var in variables]
    sources = []
    for attr, expr in zip(schema, exprs):
        if isinstance(expr, ast.Const):
            try:
                if attr.type.coerce(expr.value) is not expr.value:
                    return None
            except ArielError:
                return None
            sources.append((expr.value, -1, 0))
            continue
        if (not isinstance(expr, ast.AttrRef) or expr.previous
                or expr.var not in variables or expr.position is None
                or expr.var not in scope):
            return None
        source = catalog.relation(scope[expr.var]).schema
        if source.attributes[expr.position].type is not attr.type:
            return None
        sources.append((None, variables.index(expr.var), expr.position))
    return sources, arities


def _delete_scanned(plan: SeqScan):
    """A delete over a sequential scan: the qualifying TIDs straight off
    the heap's slots, the predicate run on one reused binding."""
    name, var, predicate = plan.relation, plan.var, plan._predicate

    def delete(ctx, params):
        relation = ctx.catalog.relation(name)
        if predicate is None:
            tids = [new_tid((name, slot))
                    for slot, _ in relation.items()]
        else:
            bound = Bindings(params=params)
            current = bound.current
            tids = []
            for slot, values in relation.items():
                current[var] = values
                if predicate(bound) is True:
                    tids.append(new_tid((name, slot)))
        ctx.hooks.delete_many(name, tids)
        return DmlResult(len(tids))
    return delete
