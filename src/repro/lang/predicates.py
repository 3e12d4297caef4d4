"""Predicate analysis: conjunct splitting, selection/join classification,
and bound extraction.

Both clients read a single-variable conjunct through one recognizer,
:func:`bound_of_conjunct` (``var.attr CMP e`` with ``e`` free of tuple
variables), and then part ways:

* the **query optimizer** (and its statistics) takes the bound as an
  expression — a literal, a constant expression or a ``$param`` — via
  :func:`analyze_bounds`, to push selections to scans and pick an index
  probe or range scan; :func:`equijoin_of_conjunct` picks join
  predicates;
* the **rule network builder** splits a rule condition into
  per-variable selection predicates and inter-variable join predicates,
  and folds constant bounds into the interval form (``c1 < r.a <= c2``,
  ``c = r.a``, ``c < r.a`` …) that the top-level selection predicate
  index can index (paper section 4.1) via :func:`interval_of_conjunct`
  and :func:`analyze_selection`; rules have no parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SemanticError
from repro.intervals.interval import Interval, NEG_INF, POS_INF, key_lt
from repro.lang import ast_nodes as ast
from repro.lang.expr import constant_value, contains_params, variables_of


def split_conjuncts(expr: ast.Expr | None) -> list[ast.Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: list[ast.Expr]) -> ast.Expr | None:
    """Rebuild an AND tree from conjuncts (None when empty)."""
    result: ast.Expr | None = None
    for conjunct in conjuncts:
        result = (conjunct if result is None
                  else ast.BinOp("and", result, conjunct))
    return result


@dataclass(frozen=True)
class EquiJoinPredicate:
    """``left_var.left_attr = right_var.right_attr`` between two variables.

    Positions are resolved schema positions; the optimizer and the TREAT
    join step use them for index probes and hash keys.
    """

    left_var: str
    left_attr: str
    left_position: int
    right_var: str
    right_attr: str
    right_position: int

    def reversed(self) -> "EquiJoinPredicate":
        return EquiJoinPredicate(
            self.right_var, self.right_attr, self.right_position,
            self.left_var, self.left_attr, self.left_position)


@dataclass
class ConditionGraph:
    """A rule condition (or WHERE clause) split per the TREAT layout.

    * ``selections[var]`` — conjuncts referencing only ``var``;
    * ``joins`` — conjuncts referencing two or more variables;
    * ``constants`` — variable-free conjuncts (evaluated once).
    """

    selections: dict[str, list[ast.Expr]]
    joins: list[ast.Expr]
    constants: list[ast.Expr]

    def selection_predicate(self, var: str) -> ast.Expr | None:
        return conjoin(self.selections.get(var, []))

    def join_predicate(self) -> ast.Expr | None:
        return conjoin(self.joins)


def build_condition_graph(expr: ast.Expr | None,
                          variables: list[str]) -> ConditionGraph:
    """Partition a predicate into selections, joins and constants."""
    selections: dict[str, list[ast.Expr]] = {v: [] for v in variables}
    joins: list[ast.Expr] = []
    constants: list[ast.Expr] = []
    for conjunct in split_conjuncts(expr):
        referenced = variables_of(conjunct)
        unknown = referenced - set(variables)
        if unknown:
            raise SemanticError(
                f"predicate references unbound variables {sorted(unknown)}")
        if not referenced:
            constants.append(conjunct)
        elif len(referenced) == 1:
            selections[next(iter(referenced))].append(conjunct)
        else:
            joins.append(conjunct)
    return ConditionGraph(selections, joins, constants)


# ----------------------------------------------------------------------
# bounds: ``var.attr CMP e`` with ``e`` free of tuple variables
# ----------------------------------------------------------------------

def bound_of_conjunct(conjunct: ast.Expr, var: str
                      ) -> tuple[str, int, str, ast.Expr] | None:
    """The ``(attr, position, op, bound)`` form of a conjunct comparing
    ``var.attr`` against an expression free of tuple variables — a
    literal, a constant expression or one holding ``$param``
    placeholders — with ``op`` read as ``var.attr op bound``.

    Returns None for conjuncts no index can anchor on (``!=``,
    ``previous`` references, arithmetic over the attribute, multiple
    attributes, ``new()``, …); those become residual predicates.
    """
    if not isinstance(conjunct, ast.BinOp) \
            or conjunct.op not in ast.COMPARISON_OPS \
            or conjunct.op == "!=":
        return None
    sides = [(conjunct.left, conjunct.right, conjunct.op),
             (conjunct.right, conjunct.left, _flip(conjunct.op))]
    for attr_side, bound_side, op in sides:
        if not isinstance(attr_side, ast.AttrRef) or attr_side.previous:
            continue
        if attr_side.var != var or variables_of(bound_side):
            continue
        return (attr_side.attr, attr_side.position or 0, op, bound_side)
    return None


@dataclass(frozen=True)
class AttrInterval:
    """An interval constraint on one (non-``previous``) attribute."""

    attr: str
    position: int
    interval: Interval


def interval_of_conjunct(conjunct: ast.Expr,
                         var: str) -> AttrInterval | None:
    """The folded interval of a constant bound (:func:`bound_of_conjunct`),
    for the selection predicate index.

    None when the conjunct is no bound, its bound holds a parameter, or
    the bound is null or NaN (no interval holds either).
    """
    form = bound_of_conjunct(conjunct, var)
    if form is None:
        return None
    attr, position, op, expr = form
    try:
        bound = constant_value(expr)
    except SemanticError:
        return None
    if bound is None or bound != bound:
        return None
    return AttrInterval(attr, position, _interval_for(op, bound))


def _flip(op: str) -> str:
    return {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}[op]


def _interval_for(op: str, bound) -> Interval:
    if op == "=":
        return Interval.point(bound)
    if op == "<":
        return Interval.at_most(bound, closed=False)
    if op == "<=":
        return Interval.at_most(bound, closed=True)
    if op == ">":
        return Interval.at_least(bound, closed=False)
    return Interval.at_least(bound, closed=True)


def intersect(a: Interval, b: Interval) -> Interval | None:
    """Intersection of two intervals (None when empty).

    Payloads are dropped; callers re-attach their own.
    """
    if key_lt(a.low, b.low):
        low, low_closed = b.low, b.low_closed
    elif key_lt(b.low, a.low):
        low, low_closed = a.low, a.low_closed
    else:
        low, low_closed = a.low, a.low_closed and b.low_closed
    if key_lt(a.high, b.high):
        high, high_closed = a.high, a.high_closed
    elif key_lt(b.high, a.high):
        high, high_closed = b.high, b.high_closed
    else:
        high, high_closed = a.high, a.high_closed and b.high_closed
    try:
        return Interval(low, high, low_closed, high_closed)
    except ValueError:
        return None


@dataclass
class SelectionAnalysis:
    """A variable's selection predicate, split for index anchoring.

    ``anchor`` is the tightest interval constraint on a single attribute,
    obtained by intersecting every interval-form conjunct on the chosen
    attribute; ``residual`` is the AND of all remaining conjuncts
    (including conjuncts on other attributes), to be verified after the
    index reports a candidate match.  ``unsatisfiable`` marks predicates
    whose interval conjuncts contradict (empty intersection).
    """

    anchor: AttrInterval | None
    residual: ast.Expr | None
    unsatisfiable: bool = False


def analyze_selection(conjuncts: list[ast.Expr],
                      var: str) -> SelectionAnalysis:
    """Choose an index anchor for a variable's selection conjuncts.

    Strategy: group the interval-form conjuncts by attribute, intersect
    each group, and anchor on the attribute whose combined interval is a
    point if one exists (most selective), otherwise the attribute with the
    most conjuncts.  Everything else is residual.
    """
    by_attr: dict[str, list[tuple[int, AttrInterval]]] = {}
    residual: list[ast.Expr] = []
    interval_positions: dict[int, str] = {}
    for i, conjunct in enumerate(conjuncts):
        attr_interval = interval_of_conjunct(conjunct, var)
        if attr_interval is None:
            residual.append(conjunct)
        else:
            by_attr.setdefault(attr_interval.attr, []).append(
                (i, attr_interval))
            interval_positions[i] = attr_interval.attr

    if not by_attr:
        return SelectionAnalysis(None, conjoin(residual))

    combined: dict[str, AttrInterval | None] = {}
    for attr, entries in by_attr.items():
        interval: Interval | None = entries[0][1].interval
        for _, attr_interval in entries[1:]:
            if interval is not None:
                interval = intersect(interval, attr_interval.interval)
        combined[attr] = (None if interval is None else AttrInterval(
            attr, entries[0][1].position, interval))

    if any(v is None for v in combined.values()):
        return SelectionAnalysis(None, conjoin(conjuncts),
                                 unsatisfiable=True)

    def score(attr: str) -> tuple:
        attr_interval = combined[attr]
        is_point = (attr_interval.interval.low_closed
                    and attr_interval.interval.high_closed
                    and not key_lt(attr_interval.interval.low,
                                   attr_interval.interval.high))
        bounded = (attr_interval.interval.low is not NEG_INF) + \
                  (attr_interval.interval.high is not POS_INF)
        return (is_point, bounded, len(by_attr[attr]), attr)

    best = max(combined, key=score)
    anchor = combined[best]
    for i, conjunct in enumerate(conjuncts):
        if interval_positions.get(i) == best:
            continue
        if i in interval_positions:
            residual.append(conjunct)
    # Keep residuals in original conjunct order for readable deparse.
    residual_set = {id(c) for c in residual}
    ordered = [c for c in conjuncts if id(c) in residual_set]
    return SelectionAnalysis(anchor, conjoin(ordered))


# ----------------------------------------------------------------------
# the planner's index anchor
# ----------------------------------------------------------------------

@dataclass
class BoundAnchor:
    """An index anchor whose bounds are expressions.

    ``eq`` set means a point probe; otherwise ``low``/``high`` give the
    (possibly one-sided) range bounds.  A bound is evaluated at each
    execution, so one plan serves literals, constant expressions and
    ``$param`` values alike; a literal is the trivial expression.
    """

    attr: str
    position: int
    eq: ast.Expr | None = None
    low: ast.Expr | None = None
    low_closed: bool = False
    high: ast.Expr | None = None
    high_closed: bool = False


def analyze_bounds(conjuncts: list[ast.Expr],
                   var: str) -> tuple[BoundAnchor | None, ast.Expr | None]:
    """Choose an index anchor for a variable's selection conjuncts.

    Returns ``(anchor, residual)``; the residual re-checks every conjunct
    not folded into the anchor.  Equality anchors win over range
    anchors; among ranges the attribute with the most bounds wins.  Only
    what the access path uses is folded: a probe's one equality (ranges
    beside it stay residual), or a scan's first lower and first upper
    bound.  A parameter-free bound is evaluated once here, so one that
    raises (``t.a = 1/0``) raises while planning, rows or none.
    """
    by_attr: dict[str, list[tuple[ast.Expr, int, str, ast.Expr]]] = {}
    for conjunct in conjuncts:
        form = bound_of_conjunct(conjunct, var)
        if form is not None:
            attr, position, op, bound = form
            if not contains_params(bound):
                constant_value(bound)
            by_attr.setdefault(attr, []).append(
                (conjunct, position, op, bound))
    if not by_attr:
        return None, conjoin(conjuncts)

    def score(attr: str) -> tuple:
        entries = by_attr[attr]
        has_eq = any(op == "=" for _, _, op, _ in entries)
        return (has_eq, len(entries), attr)

    best = max(by_attr, key=score)
    entries = by_attr[best]
    anchor = BoundAnchor(best, entries[0][1])
    equalities = [entry for entry in entries if entry[2] == "="]
    folded: set[int] = set()
    for conjunct, _, op, bound in equalities[:1] or entries:
        if op == "=":
            anchor.eq = bound
        elif op in (">", ">=") and anchor.low is None:
            anchor.low, anchor.low_closed = bound, op == ">="
        elif op in ("<", "<=") and anchor.high is None:
            anchor.high, anchor.high_closed = bound, op == "<="
        else:
            continue
        folded.add(id(conjunct))
    residual = conjoin([c for c in conjuncts if id(c) not in folded])
    return anchor, residual


def equijoin_of_conjunct(conjunct: ast.Expr) -> EquiJoinPredicate | None:
    """The equi-join form of ``v1.a = v2.b`` (current values), if any."""
    if not isinstance(conjunct, ast.BinOp) or conjunct.op != "=":
        return None
    left, right = conjunct.left, conjunct.right
    if not (isinstance(left, ast.AttrRef) and isinstance(right, ast.AttrRef)):
        return None
    if left.previous or right.previous:
        return None
    if left.var == right.var:
        return None
    return EquiJoinPredicate(
        left.var, left.attr, left.position or 0,
        right.var, right.attr, right.position or 0)
