"""Physical plan operators (iterator model over Bindings).

Every operator yields :class:`~repro.lang.expr.Bindings` — tuple variables
bound to value tuples plus their TIDs — rather than flat rows; projection
to output rows happens only at the top of a ``retrieve``.  This is what
lets one plan machinery serve ordinary queries *and* rule actions: the
:class:`PnodeScan` operator binds every shared tuple variable of a rule
(current and ``previous`` values, and the TIDs that ``replace'`` /
``delete'`` need) from one P-node entry, exactly as described in paper
section 5.2.

Operators are parameterised: ``rows(ctx, outer)`` streams results given
outer bindings, so an :class:`IndexProbe` under a :class:`NestedLoopJoin`
is an index nested-loop join with no special casing.

``explain analyze`` support lives here too: :func:`instrument` shallow-
copies a plan tree and wraps every node in an :class:`AnalyzedPlan` that
records rows produced, loop (re-execution) count and wall time, without
touching the original (possibly cached) plan.
"""

from __future__ import annotations

import copy
import time
from typing import Iterator

from repro.errors import PlanError
from repro.lang import ast_nodes as ast
from repro.lang.ast_nodes import deparse
from repro.lang.expr import Bindings, compile_expr, is_true


class Plan:
    """Base class for physical operators.

    ``reuse=True`` lets scans mutate one Bindings object in place per
    yielded row instead of copying three dicts per row.  It is only safe
    when the consumer finishes with each yielded binding before pulling
    the next (the executor's evaluate-and-discard loops); operators that
    retain rows (hash build sides) always ask their
    children for fresh copies.
    """

    #: tuple variables this plan binds
    vars: frozenset[str] = frozenset()

    #: attribute names holding child plans, in :meth:`children` order —
    #: what :func:`instrument` rewrites when wrapping a tree
    child_attrs: tuple[str, ...] = ()

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__

    def children(self) -> tuple["Plan", ...]:
        return ()


def _compile_optional(expr: ast.Expr | None):
    return compile_expr(expr) if expr is not None else None


class SeqScan(Plan):
    """Sequential scan of a base relation, with an optional pushed
    selection predicate."""

    def __init__(self, relation: str, var: str,
                 predicate: ast.Expr | None = None):
        self.relation = relation
        self.var = var
        self.predicate_expr = predicate
        self._predicate = _compile_optional(predicate)
        self.vars = frozenset([var])

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        relation = ctx.catalog.relation(self.relation)
        predicate = self._predicate
        var = self.var
        if reuse:
            base = outer.child()
            for stored in relation.scan():
                bound = base.rebind(var, stored.values, stored.tid)
                if predicate is None or is_true(predicate(bound)):
                    yield bound
        else:
            for stored in relation.scan():
                bound = outer.bind(var, stored.values, stored.tid)
                if predicate is None or is_true(predicate(bound)):
                    yield bound

    def label(self) -> str:
        text = f"SeqScan {self.relation} as {self.var}"
        if self.predicate_expr is not None:
            text += f" [{deparse(self.predicate_expr)}]"
        return text


def _index(relation, name: str):
    for candidate in relation.indexes():
        if candidate.name == name:
            return candidate
    raise PlanError(f"index {name!r} disappeared; replan required")


def _unordered(value) -> bool:
    """Null or NaN: no comparison with either is true, and a B-tree
    orders NaN nowhere (it would answer a NaN range with every row)."""
    return value is None or value != value


class IndexScan(Plan):
    """B-tree range scan between bound expressions.

    ``low`` / ``high`` (None = unbounded on that side) are evaluated
    against the outer bindings on every execution, so one cached plan
    serves every literal and parameter value; a bound that evaluates to
    null or NaN produces no rows.  ``residual`` re-checks conjuncts the
    range does not cover.
    """

    def __init__(self, relation: str, var: str, index_name: str,
                 low: ast.Expr | None, low_closed: bool,
                 high: ast.Expr | None, high_closed: bool,
                 residual: ast.Expr | None = None):
        self.relation = relation
        self.var = var
        self.index_name = index_name
        self.low_expr, self.low_closed = low, low_closed
        self.high_expr, self.high_closed = high, high_closed
        self._low = _compile_optional(low)
        self._high = _compile_optional(high)
        self.residual_expr = residual
        self._residual = _compile_optional(residual)
        self.vars = frozenset([var])

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        relation = ctx.catalog.relation(self.relation)
        index = _index(relation, self.index_name)
        low = high = None
        if self._low is not None:
            low = self._low(outer)
            if _unordered(low):
                return
        if self._high is not None:
            high = self._high(outer)
            if _unordered(high):
                return
        tids = index.range_search(low, high,
                                  low_inclusive=self.low_closed,
                                  high_inclusive=self.high_closed)
        residual = self._residual
        var = self.var
        base = outer.child() if reuse else None
        for stored in relation.fetch(tids):
            if reuse:
                bound = base.rebind(var, stored.values, stored.tid)
            else:
                bound = outer.bind(var, stored.values, stored.tid)
            if residual is None or is_true(residual(bound)):
                yield bound

    def label(self) -> str:
        low = "-inf" if self.low_expr is None else deparse(self.low_expr)
        high = "+inf" if self.high_expr is None else deparse(self.high_expr)
        text = (f"IndexScan {self.relation} as {self.var} "
                f"using {self.index_name} "
                f"{'[' if self.low_closed else '('}{low}, "
                f"{high}{']' if self.high_closed else ')'}")
        if self.residual_expr is not None:
            text += f" [{deparse(self.residual_expr)}]"
        return text


class IndexProbe(Plan):
    """Equality probe: the key is computed from the outer bindings on
    every call — a literal or parameter bound, or the outer side's join
    attribute (the inner side of an index nested-loop join).  A null or
    NaN key produces no rows: no index holds one."""

    def __init__(self, relation: str, var: str, index_name: str,
                 key: ast.Expr, residual: ast.Expr | None = None):
        self.relation = relation
        self.var = var
        self.index_name = index_name
        self.key_expr = key
        self._key = compile_expr(key)
        self.residual_expr = residual
        self._residual = _compile_optional(residual)
        self.vars = frozenset([var])

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        key = self._key(outer)
        relation = ctx.catalog.relation(self.relation)
        index = _index(relation, self.index_name)
        residual = self._residual
        var = self.var
        base = outer.child() if reuse else None
        for stored in relation.fetch(index.search(key)):
            if reuse:
                bound = base.rebind(var, stored.values, stored.tid)
            else:
                bound = outer.bind(var, stored.values, stored.tid)
            if residual is None or is_true(residual(bound)):
                yield bound

    def qualifying(self, ctx, bound: Bindings) -> Iterator:
        """The statement kernel's :meth:`rows`: yield each qualifying
        TID with ``bound.current[var]`` set, in place, to its values
        (apart from :meth:`rows`, the reference it is tested against)."""
        key = self._key(bound)
        relation = ctx.catalog.relation(self.relation)
        tids = _index(relation, self.index_name).search(key)
        residual, current, var = self._residual, bound.current, self.var
        for tid, values in relation.lookup(tids):
            current[var] = values
            if residual is None or residual(bound) is True:
                yield tid

    def label(self) -> str:
        text = (f"IndexProbe {self.relation} as {self.var} "
                f"using {self.index_name} on {deparse(self.key_expr)}")
        if self.residual_expr is not None:
            text += f" [{deparse(self.residual_expr)}]"
        return text


#: the parameter-vector key a rule firing binds its consumed matches
#: under; not a string, so no ``$name`` can collide with it
PNODE = object()


class PnodeScan(Plan):
    """Scan of a rule's P-node, binding every shared tuple variable.

    "The Ariel query processor provides an operator called PnodeScan which
    can scan a P-node and optionally apply a selection predicate to it"
    (paper section 5.2).  The matches are the execution's parameter
    ``params[PNODE]``: a rule action is a prepared statement whose one
    parameter is the set of matches its firing consumed.
    """

    def __init__(self, rule_name: str, variables,
                 predicate: ast.Expr | None = None):
        self.rule_name = rule_name
        self.predicate_expr = predicate
        self._predicate = _compile_optional(predicate)
        self.vars = frozenset(variables)

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        # match.extend always copies, so the reuse flag has no effect.
        predicate = self._predicate
        for match in outer.params[PNODE]:
            bound = match.extend(outer)
            if predicate is None or is_true(predicate(bound)):
                yield bound

    def label(self) -> str:
        text = (f"PnodeScan P({self.rule_name}) "
                f"binding {', '.join(sorted(self.vars))}")
        if self.predicate_expr is not None:
            text += f" [{deparse(self.predicate_expr)}]"
        return text


class FilterPlan(Plan):
    """Apply a predicate to child rows (non-pushable conjuncts)."""

    child_attrs = ("child",)

    def __init__(self, child: Plan, predicate: ast.Expr):
        self.child = child
        self.predicate_expr = predicate
        self._predicate = compile_expr(predicate)
        self.vars = child.vars

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        predicate = self._predicate
        for bound in self.child.rows(ctx, outer, reuse):
            if is_true(predicate(bound)):
                yield bound

    def label(self) -> str:
        return f"Filter [{deparse(self.predicate_expr)}]"

    def children(self) -> tuple[Plan, ...]:
        return (self.child,)


class NestedLoopJoin(Plan):
    """For each outer row, re-execute the inner plan with that row bound.

    With an :class:`IndexProbe` inner this is an index nested-loop join;
    with a scan inner it is the plain nested loop of paper Figure 8.
    """

    child_attrs = ("outer", "inner")

    def __init__(self, outer: Plan, inner: Plan,
                 predicate: ast.Expr | None = None):
        self.outer = outer
        self.inner = inner
        self.predicate_expr = predicate
        self._predicate = _compile_optional(predicate)
        self.vars = outer.vars | inner.vars

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        # The outer side may reuse: each left row is fully consumed by
        # the inner loop before the next one is produced.  The inner
        # side's rows reach our consumer, so it inherits our flag.
        predicate = self._predicate
        for left in self.outer.rows(ctx, outer, True):
            for both in self.inner.rows(ctx, left, reuse):
                if predicate is None or is_true(predicate(both)):
                    yield both

    def label(self) -> str:
        text = "NestedLoopJoin"
        if self.predicate_expr is not None:
            text += f" [{deparse(self.predicate_expr)}]"
        return text

    def children(self) -> tuple[Plan, ...]:
        return (self.outer, self.inner)


class HashJoin(Plan):
    """Equi-join: build a hash table on the left, probe with the right.

    Null keys never join (SQL semantics).  ``residual`` evaluates any
    extra join conjuncts on matched pairs.
    """

    child_attrs = ("left", "right")

    def __init__(self, left: Plan, right: Plan,
                 left_keys: list[ast.Expr], right_keys: list[ast.Expr],
                 residual: ast.Expr | None = None):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("hash join needs matching non-empty key lists")
        self.left = left
        self.right = right
        self.left_key_exprs = left_keys
        self.right_key_exprs = right_keys
        self._left_keys = [compile_expr(k) for k in left_keys]
        self._right_keys = [compile_expr(k) for k in right_keys]
        self.residual_expr = residual
        self._residual = _compile_optional(residual)
        self.vars = left.vars | right.vars

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        # The build side is retained in the table, so it must not reuse;
        # probe rows are copied into ``merged`` before the next row, so
        # the probe side may.
        table: dict[tuple, list[Bindings]] = {}
        for left in self.left.rows(ctx, outer):
            key = tuple(k(left) for k in self._left_keys)
            if any(v is None for v in key):
                continue
            table.setdefault(key, []).append(left)
        residual = self._residual
        right_vars = self.right.vars
        for right in self.right.rows(ctx, outer, True):
            key = tuple(k(right) for k in self._right_keys)
            if any(v is None for v in key):
                continue
            for left in table.get(key, ()):
                merged = left.child()
                for var in right_vars:
                    merged.current[var] = right.current[var]
                    if var in right.tids:
                        merged.tids[var] = right.tids[var]
                    if var in right.previous:
                        merged.previous[var] = right.previous[var]
                if residual is None or is_true(residual(merged)):
                    yield merged

    def label(self) -> str:
        keys = ", ".join(
            f"{deparse(l)} = {deparse(r)}"
            for l, r in zip(self.left_key_exprs, self.right_key_exprs))
        text = f"HashJoin [{keys}]"
        if self.residual_expr is not None:
            text += f" +[{deparse(self.residual_expr)}]"
        return text

    def children(self) -> tuple[Plan, ...]:
        return (self.left, self.right)


class EmptyPlan(Plan):
    """Produces no rows (unsatisfiable predicates plan to this)."""

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        return iter(())

    def label(self) -> str:
        return "Empty"


class SingletonPlan(Plan):
    """Produces exactly the outer bindings once (zero-variable commands
    like ``append t(a = 1)``)."""

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        yield outer

    def label(self) -> str:
        return "Singleton"


class AnalyzedPlan(Plan):
    """Instrumenting wrapper around one plan node (``explain analyze``).

    Counts loops (how often the node was (re-)executed — the inner side
    of a nested-loop join runs once per outer row), rows produced, and
    wall time.  Timing brackets each ``next()`` on the wrapped iterator,
    so a node's time *includes* its children (as in PostgreSQL's EXPLAIN
    ANALYZE) but excludes time the consumer spends on each row.
    """

    def __init__(self, node: Plan, children: list["AnalyzedPlan"]):
        self.node = node
        self._children = tuple(children)
        self.vars = node.vars
        self.loops = 0
        self.rows_out = 0
        self.seconds = 0.0

    def rows(self, ctx, outer: Bindings,
             reuse: bool = False) -> Iterator[Bindings]:
        self.loops += 1
        iterator = self.node.rows(ctx, outer, reuse)
        perf_counter = time.perf_counter
        while True:
            start = perf_counter()
            try:
                row = next(iterator)
            except StopIteration:
                self.seconds += perf_counter() - start
                return
            self.seconds += perf_counter() - start
            self.rows_out += 1
            yield row

    def rows_in(self) -> int:
        """Rows the node consumed: the sum of its children's output."""
        return sum(child.rows_out for child in self._children)

    def label(self) -> str:
        parts = []
        if self._children:
            parts.append(f"rows_in={self.rows_in()}")
        parts.append(f"rows={self.rows_out}")
        parts.append(f"loops={self.loops}")
        parts.append(f"time={self.seconds * 1000.0:.3f}ms")
        return f"{self.node.label()} ({' '.join(parts)})"

    def children(self) -> tuple[Plan, ...]:
        return self._children


def instrument(plan: Plan) -> AnalyzedPlan:
    """Wrap every node of a plan tree in an :class:`AnalyzedPlan`.

    The tree is rebuilt from shallow copies with child attributes
    rewritten to the wrapped children, so the original plan — which may
    live in a statement cache — is never mutated and records nothing.
    """
    node = copy.copy(plan)
    wrapped_children = []
    for attr in plan.child_attrs:
        wrapped = instrument(getattr(plan, attr))
        setattr(node, attr, wrapped)
        wrapped_children.append(wrapped)
    return AnalyzedPlan(node, wrapped_children)


def explain(plan: Plan, indent: int = 0) -> str:
    """Render a plan tree as an indented outline (one node per line)."""
    lines = ["  " * indent + plan.label()]
    for child in plan.children():
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)


def plan_operators(plan: Plan) -> list[str]:
    """Flat list of operator class names (handy for tests)."""
    out = [type(plan).__name__]
    for child in plan.children():
        out.extend(plan_operators(child))
    return out
