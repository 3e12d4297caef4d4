"""The query plan executor.

Executes :class:`~repro.planner.plans.Plan` trees and applies DML
semantics on top of them:

* **retrieve** — project result columns off the qualifying bindings;
* **append** — evaluate the target expressions per qualifying binding and
  insert;
* **delete / replace** — materialise the qualifying target TIDs *first*,
  then apply (avoiding the Halloween problem of an update rescanning its
  own output), locating targets either by scan (ordinary commands) or via
  the TIDs carried in P-node entries (``delete'`` / ``replace'`` after
  query modification, paper section 5.1).

Every mutation is routed through :class:`MutationHooks`.  The plain
:class:`DirectHooks` applies straight to the heap; the transition manager
in ``repro.txn`` substitutes hooks that also generate rule-network tokens,
which is how "the Ariel rule system is tightly coupled with query and
update processing" (paper abstract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.errors import ExecutionError
from repro.lang import ast_nodes as ast
from repro.lang.expr import Bindings, compile_expr
from repro.storage.tuples import TupleId

if TYPE_CHECKING:
    from repro.planner.optimizer import PlannedCommand


class MutationHooks:
    """Interface through which all data mutations flow.

    The ``*_many`` methods apply one statement's rows; these versions
    loop over the per-row methods, and the transition hooks override
    them to route the statement's tokens as one Δ-set.
    """

    def insert(self, relation_name: str, values: tuple) -> TupleId:
        raise NotImplementedError

    def delete(self, relation_name: str, tid: TupleId) -> tuple:
        raise NotImplementedError

    def replace(self, relation_name: str, tid: TupleId,
                new_values: tuple) -> tuple:
        raise NotImplementedError

    def insert_many(self, relation_name: str, rows,
                    coerced: bool = False) -> list[TupleId]:
        return [self.insert(relation_name, values) for values in rows]

    def delete_many(self, relation_name: str, tids) -> list[tuple]:
        """Delete live, distinct ``tids``."""
        return [self.delete(relation_name, tid) for tid in tids]

    def replace_many(self, relation_name: str, updates) -> None:
        """Overwrite live ``(tid, new values)`` pairs, in order."""
        for tid, new_values in updates:
            self.replace(relation_name, tid, new_values)


class DirectHooks(MutationHooks):
    """Mutations applied directly to heap relations (no rule system)."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def insert(self, relation_name: str, values: tuple) -> TupleId:
        return self.catalog.relation(relation_name).insert(values)

    def delete(self, relation_name: str, tid: TupleId) -> tuple:
        return self.catalog.relation(relation_name).delete(tid)

    def replace(self, relation_name: str, tid: TupleId,
                new_values: tuple) -> tuple:
        return self.catalog.relation(relation_name).replace(tid,
                                                            new_values)


class ExecutionContext:
    """Runtime state a plan sees: the catalog plus mutation hooks."""

    def __init__(self, catalog: Catalog,
                 hooks: MutationHooks | None = None):
        self.catalog = catalog
        self.hooks = hooks or DirectHooks(catalog)


@dataclass
class ResultSet:
    """The outcome of a retrieve: column names and rows."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list:
        """All values of one result column."""
        try:
            i = self.columns.index(name)
        except ValueError:
            raise ExecutionError(f"no result column {name!r}") from None
        return [row[i] for row in self.rows]

    def as_dicts(self) -> list[dict]:
        """Rows as name -> value dicts."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __str__(self) -> str:
        header = " | ".join(self.columns)
        lines = [header, "-" * len(header)]
        lines += [" | ".join(str(v) for v in row) for row in self.rows]
        return "\n".join(lines)


@dataclass
class DmlResult:
    """The outcome of an append/delete/replace: affected tuple count."""

    count: int


class Executor:
    """Runs planned DML commands against an execution context."""

    def __init__(self, context: ExecutionContext):
        self.context = context

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def run(self, planned: PlannedCommand,
            params: dict[str, object] | None = None):
        kernel = planned.kernel
        if kernel is not None:
            return kernel(self.context, params)
        command = planned.command
        if isinstance(command, ast.Retrieve):
            return self.run_retrieve(planned, params)
        if isinstance(command, ast.Append):
            return self.run_append(planned, params)
        if isinstance(command, ast.Delete):
            return self.run_delete(planned, params)
        if isinstance(command, ast.Replace):
            return self.run_replace(planned, params)
        raise ExecutionError(
            f"executor cannot run {type(command).__name__}")

    # ------------------------------------------------------------------
    # retrieve
    # ------------------------------------------------------------------

    def run_retrieve(self, planned: PlannedCommand,
                     params: dict[str, object] | None = None) -> ResultSet:
        command: ast.Retrieve = planned.command
        compiled = planned.evaluators
        if compiled is None:          # compiled once per plan, not per run
            compiled = planned.evaluators = compile_retrieve(command)
        columns, evaluators, sort_evaluators = compiled
        if evaluators is None:
            return self._run_retrieve_aggregated(planned, columns, params)
        rows = []
        keyed = []
        for bound in planned.plan.rows(self.context,
                                       Bindings(params=params), reuse=True):
            row = tuple(ev(bound) for ev in evaluators)
            if sort_evaluators:
                keyed.append((row, [ev(bound)
                                    for ev, _ in sort_evaluators]))
            else:
                rows.append(row)
        if sort_evaluators:
            # Stable multi-key sort: apply keys from least to most
            # significant; nulls sort last in either direction.
            for index in range(len(sort_evaluators) - 1, -1, -1):
                ascending = sort_evaluators[index][1]
                if ascending:
                    keyed.sort(key=lambda pair, i=index: (
                        pair[1][i] is None, pair[1][i]
                        if pair[1][i] is not None else 0))
                else:
                    keyed.sort(key=lambda pair, i=index: (
                        pair[1][i] is not None, pair[1][i]
                        if pair[1][i] is not None else 0), reverse=True)
            rows = [row for row, _ in keyed]
        if command.unique:
            seen = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped
        result = ResultSet(columns, rows)
        if command.into is not None:
            self._materialize_into(command.into, result)
        return result

    def _run_retrieve_aggregated(
            self, planned: PlannedCommand, columns: tuple[str, ...],
            params: dict[str, object] | None = None) -> ResultSet:
        """Aggregated retrieve with POSTQUEL implicit grouping: the
        aggregate-free targets are the group keys."""
        command: ast.Retrieve = planned.command
        key_targets: list[tuple[int, object]] = []     # (pos, evaluator)
        agg_targets: list[tuple[int, object]] = []     # (pos, post-eval)
        aggregates: list[_Accumulator] = []
        for i, col in enumerate(command.targets):
            if _contains_aggregate(col.expr):
                agg_targets.append(
                    (i, _build_post_evaluator(col.expr, aggregates,
                                              params)))
            else:
                key_targets.append((i, compile_expr(col.expr)))

        groups: dict[tuple, list] = {}
        for bound in planned.plan.rows(self.context,
                                       Bindings(params=params), reuse=True):
            key = tuple(ev(bound) for _, ev in key_targets)
            states = groups.get(key)
            if states is None:
                states = [acc.fresh() for acc in aggregates]
                groups[key] = states
            for acc, state in zip(aggregates, states):
                acc.update(state, bound)
        if not groups and not key_targets:
            # a global aggregate over no rows still yields one row
            groups[()] = [acc.fresh() for acc in aggregates]

        rows = []
        for key, states in groups.items():
            values = [acc.result(state)
                      for acc, state in zip(aggregates, states)]
            row = [None] * len(command.targets)
            for (pos, _), value in zip(key_targets, key):
                row[pos] = value
            for pos, post in agg_targets:
                row[pos] = post(values)
            rows.append(tuple(row))
        if command.unique:
            seen = set()
            rows = [r for r in rows
                    if r not in seen and not seen.add(r)]
        result = ResultSet(columns, rows)
        if command.into is not None:
            self._materialize_into(command.into, result)
        return result

    def _materialize_into(self, relation_name: str,
                          result: ResultSet) -> None:
        """Create the target relation of ``retrieve into`` and fill it."""
        columns = {}
        for i, name in enumerate(result.columns):
            sample = next((row[i] for row in result.rows
                           if row[i] is not None), None)
            columns[name] = _type_name_for(sample)
        schema = Schema.of(**columns)
        self.context.catalog.create_relation(relation_name, schema)
        notify = getattr(self.context.hooks, "relation_created", None)
        if notify is not None:
            notify(relation_name, schema)
        self.context.hooks.insert_many(relation_name, result.rows)

    # ------------------------------------------------------------------
    # append
    # ------------------------------------------------------------------

    def run_append(self, planned: PlannedCommand,
                   params: dict[str, object] | None = None) -> DmlResult:
        command: ast.Append = planned.command
        relation = self.context.catalog.relation(command.relation)
        row = planned.evaluators
        if row is None:               # compiled once per plan, not per run
            row = planned.evaluators = compile_append(command,
                                                      relation.schema)
        new_tuples = [row(bound) for bound in planned.plan.rows(
            self.context, Bindings(params=params), reuse=True)]
        # one Δ-set, all or nothing on a coercion error
        self.context.hooks.insert_many(command.relation, new_tuples)
        return DmlResult(len(new_tuples))

    # ------------------------------------------------------------------
    # delete / replace
    # ------------------------------------------------------------------

    def run_delete(self, planned: PlannedCommand,
                   params: dict[str, object] | None = None) -> DmlResult:
        relation_name = self._target_relation(planned)
        tids = [tid for tid, _ in self._targets(planned, params)]
        relation = self.context.catalog.relation(relation_name)
        return apply_deletes(self.context.hooks, relation, tids)

    def run_replace(self, planned: PlannedCommand,
                    params: dict[str, object] | None = None) -> DmlResult:
        relation = self.context.catalog.relation(
            self._target_relation(planned))
        evaluators = planned.evaluators
        if evaluators is None:        # compiled once per plan, not per run
            evaluators = planned.evaluators = compile_assignments(
                planned.command, relation.schema)
        return apply_replaces(self.context.hooks, relation, [
            (tid, [(pos, ev(bound)) for pos, ev in evaluators])
            for tid, bound in self._targets(planned, params)])

    def _targets(self, planned: PlannedCommand,
                 params: dict[str, object] | None):
        """Yield ``(tid, bindings)`` once per distinct target tuple."""
        target_var = planned.command.target_var
        seen: set[TupleId] = set()
        for bound in planned.plan.rows(self.context,
                                       Bindings(params=params), reuse=True):
            tid = bound.tids.get(target_var)
            if tid is None:
                raise ExecutionError(
                    f"no TID bound for target variable {target_var!r}")
            if tid not in seen:
                seen.add(tid)
                yield tid, bound

    def _target_relation(self, planned: PlannedCommand) -> str:
        command = planned.command
        relation = planned.scope.get(command.target_var)
        if relation is None:
            raise ExecutionError(
                f"unresolved target variable {command.target_var!r}")
        return relation


def apply_deletes(hooks: MutationHooks, relation, tids: list) -> DmlResult:
    """Delete the collected target TIDs that are still live, as one
    set-oriented :meth:`MutationHooks.delete_many`.  A tuple that
    vanished between qualification and apply (a P-node entry went
    stale) is skipped silently, as the paper's delete' does, and one
    named twice is deleted once."""
    contains = relation.contains
    live = list(dict.fromkeys([tid for tid in tids if contains(tid)]))
    hooks.delete_many(relation.name, live)
    return DmlResult(len(live))


def apply_replaces(hooks: MutationHooks, relation,
                   updates: list) -> DmlResult:
    """Apply collected ``(tid, [(position, value), ...])`` updates to the
    TIDs that are still live, in order, as one set-oriented
    :meth:`MutationHooks.replace_many`."""
    contains, get = relation.contains, relation.get
    rows = []
    for tid, assignments in updates:
        if contains(tid):
            new = list(get(tid))
            for pos, value in assignments:
                new[pos] = value
            rows.append((tid, tuple(new)))
    hooks.replace_many(relation.name, rows)
    return DmlResult(len(rows))


def result_name(col: ast.ResultColumn, position: int) -> str:
    """The name of a retrieve result column."""
    if col.name is not None:
        return col.name
    if isinstance(col.expr, ast.AttrRef):
        return col.expr.attr
    if isinstance(col.expr, ast.AggregateCall):
        return col.expr.func
    return f"column{position + 1}"


def compile_retrieve(command: ast.Retrieve):
    """``(columns, target evaluators, sort evaluators)``; the target
    evaluators are None for an aggregated retrieve, whose
    post-evaluators fold each execution's parameters."""
    columns = tuple(result_name(col, i)
                    for i, col in enumerate(command.targets))
    if any(_contains_aggregate(col.expr) for col in command.targets):
        return columns, None, None
    return (columns, [compile_expr(col.expr) for col in command.targets],
            [(compile_expr(k.expr), k.ascending) for k in command.sort_keys])


def compile_append(command: ast.Append, schema: Schema):
    """``row(bound)``: the value tuple an append inserts.  Named targets
    land by name — a later duplicate wins, an absent attribute is null."""
    evaluators = [compile_expr(col.expr) for col in command.targets]
    order = None                       # positional: the targets' order
    if command.targets and command.targets[0].name is not None:
        last = {col.name: i for i, col in enumerate(command.targets)}
        order = [last.get(attr.name) for attr in schema]
        if order == list(range(len(evaluators))):
            order = None

    def row(bound: Bindings) -> tuple:
        values = [ev(bound) for ev in evaluators]
        if order is None:
            return tuple(values)
        return tuple([None if i is None else values[i] for i in order])
    return row


def compile_assignments(command: ast.Replace, schema: Schema) -> list:
    """A replace's ``(position, evaluator)`` pairs."""
    return [(schema.position(col.name), compile_expr(col.expr))
            for col in command.assignments]


# ----------------------------------------------------------------------
# aggregation machinery
# ----------------------------------------------------------------------

def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.AggregateCall):
        return True
    if isinstance(expr, ast.BinOp):
        return (_contains_aggregate(expr.left)
                or _contains_aggregate(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return _contains_aggregate(expr.operand)
    return False


class _Accumulator:
    """State machine for one aggregate call.

    ``fresh()`` makes a per-group state list; ``update`` folds one input
    row in; ``result`` finalises.  Null inputs are skipped (SQL
    semantics); empty inputs yield None except for count, which yields 0.
    """

    def __init__(self, func: str, argument):
        self.func = func
        # count(var.all) counts rows; evaluator None marks that case
        self._evaluate = (None if isinstance(argument, ast.AllRef)
                          else compile_expr(argument))

    def fresh(self) -> list:
        return [0, None]          # [count, value]

    def update(self, state: list, bound: Bindings) -> None:
        if self._evaluate is None:
            state[0] += 1
            return
        value = self._evaluate(bound)
        if value is None:
            return
        state[0] += 1
        if self.func == "count":
            return
        if self.func in ("sum", "avg"):
            state[1] = value if state[1] is None else state[1] + value
        elif self.func == "min":
            if state[1] is None or value < state[1]:
                state[1] = value
        elif self.func == "max":
            if state[1] is None or value > state[1]:
                state[1] = value

    def result(self, state: list):
        if self.func == "count":
            return state[0]
        if self.func == "avg":
            if state[0] == 0:
                return None
            return state[1] / state[0]
        return state[1]


def _build_post_evaluator(expr: ast.Expr, aggregates: list[_Accumulator],
                          params: dict[str, object] | None = None):
    """Compile an aggregate-containing target into a closure over the
    list of finalised aggregate values (bare attribute references were
    rejected by semantic analysis).  Built per execution, so a
    placeholder is this execution's constant."""
    from repro.lang.expr import _ARITHMETIC, _COMPARATORS

    if isinstance(expr, ast.AggregateCall):
        index = len(aggregates)
        aggregates.append(_Accumulator(expr.func, expr.argument))
        return lambda values: values[index]
    if isinstance(expr, (ast.Const, ast.Param)):
        constant = expr.value if isinstance(expr, ast.Const) \
            else compile_expr(expr)(Bindings(params=params))
        return lambda values: constant
    if isinstance(expr, ast.UnaryOp):
        inner = _build_post_evaluator(expr.operand, aggregates, params)
        if expr.op == "-":
            return lambda values: (None if inner(values) is None
                                   else -inner(values))
        return lambda values: (None if inner(values) is None
                               else not inner(values))
    if isinstance(expr, ast.BinOp):
        left = _build_post_evaluator(expr.left, aggregates, params)
        right = _build_post_evaluator(expr.right, aggregates, params)
        op = _ARITHMETIC.get(expr.op) or _COMPARATORS.get(expr.op)
        if op is None:
            raise ExecutionError(
                f"operator {expr.op!r} not supported over aggregates")

        def combine(values):
            lhs = left(values)
            if lhs is None:
                return None
            rhs = right(values)
            if rhs is None:
                return None
            return op(lhs, rhs)
        return combine
    raise ExecutionError(
        f"cannot evaluate {type(expr).__name__} over aggregates")


def _type_name_for(sample) -> str:
    if isinstance(sample, bool):
        return "bool"
    if isinstance(sample, int):
        return "int4"
    if isinstance(sample, float):
        return "float8"
    return "text"
