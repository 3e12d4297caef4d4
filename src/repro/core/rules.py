"""Compiled rules: the analyzed, network-ready form of ``define rule``.

A :class:`CompiledRule` is built from the rule's syntax tree once, at
definition time.  It splits the condition per the TREAT layout (selection
conjuncts per tuple variable, join conjuncts across variables), decides
each variable's α-memory *gating* (pattern / event / transition — paper
section 4.3.2), pre-compiles every predicate to a closure, and flattens
the action into its command list.  The discrimination networks and the
rule-action planner consume this structure; the raw syntax tree stays in
the rule catalog for display, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import le, lt
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.catalog.catalog import Catalog
from repro.errors import RuleError
from repro.intervals.interval import NEG_INF, POS_INF, key_eq
from repro.lang import ast_nodes as ast
from repro.lang.expr import (
    Bindings, compile_expr, previous_variables_of, variables_of)
from repro.lang.predicates import (
    SelectionAnalysis, analyze_selection, build_condition_graph, conjoin,
    equijoin_of_conjunct)
from repro.storage.tuples import TupleId

if TYPE_CHECKING:
    from repro.planner.optimizer import PlannedCommand


@dataclass
class JoinConjunct:
    """One multi-variable conjunct with its compiled form."""

    expr: ast.Expr
    variables: frozenset[str]
    evaluate: Callable[[Bindings], object]
    #: equi-join form when the conjunct is ``v1.a = v2.b`` (else None)
    equijoin: object | None = None


@dataclass
class VariableSpec:
    """Everything the network needs to know about one tuple variable."""

    var: str
    relation: str
    #: event gate: the rule's on-clause applies to this variable
    event: ast.EventSpec | None = None
    #: transition gate: the condition uses ``previous var.…``
    is_transition: bool = False
    #: the condition uses ``new(var)``: binds only to tuple values created
    #: during the current transition, so the memory is dynamic and never
    #: primed from existing data
    is_new: bool = False
    #: the rule has exactly one tuple variable (simple-α: matches pass
    #: straight to the P-node)
    is_simple: bool = False
    selection_conjuncts: list[ast.Expr] = field(default_factory=list)
    analysis: SelectionAnalysis | None = None
    #: compiled residual predicate (anchor excluded); None = always true
    residual: Callable[[Bindings], object] | None = None
    #: compiled full selection predicate; None = always true
    full_selection: Callable[[Bindings], object] | None = None

    @property
    def is_dynamic(self) -> bool:
        """Dynamic memories are flushed after each transition's rule
        processing (event-, transition- and new()-gated nodes, paper
        §4.3.2)."""
        return self.event is not None or self.is_transition or self.is_new

    def selection_matches(self, values: tuple,
                          old_values: tuple | None) -> bool:
        """Does a tuple value satisfy this variable's full selection
        predicate?  (Used when priming and by virtual-memory scans.)"""
        if self.full_selection is None:
            return True
        bindings = Bindings(
            current={self.var: values},
            previous={self.var: old_values} if old_values is not None
            else {})
        try:
            return self.full_selection(bindings) is True
        except KeyError:
            # previous reference with no transition pair available
            return False

    def matching(self, pairs: Iterable[tuple], equality=None
                 ) -> Iterator[tuple]:
        """The compiled selection kernel: the ``(key, values)`` pairs
        whose values satisfy this (never a dynamic) variable's selection
        and carry ``equality = (position, value)``.  The anchor interval
        is tested natively — null and NaN lie in none — and the residual
        over one Bindings reused for the whole pass."""
        eq_pos, eq_value = equality or (None, None)
        anchor = self.analysis.anchor if self.analysis else None
        if anchor is not None:
            position, interval = anchor.position, anchor.interval
            low, high = interval.low, interval.high
            above = None if low is NEG_INF else (
                le if interval.low_closed else lt)
            below = None if high is POS_INF else (
                le if interval.high_closed else lt)
        residual = self.residual
        bindings = Bindings()
        current, var = bindings.current, self.var
        for pair in pairs:
            values = pair[1]
            if eq_pos is not None and values[eq_pos] != eq_value:
                continue
            if anchor is not None:
                value = values[position]
                if value is None \
                        or (above is not None and not above(low, value)) \
                        or (below is not None and not below(value, high)):
                    continue
            if residual is not None:
                current[var] = values
                if residual(bindings) is not True:
                    continue
            yield pair

    def select(self, relation, equality=None, tally: list | None = None
               ) -> Iterator[tuple]:
        """The one access path to "tuples of ``relation`` satisfying
        this selection", as ``(tid, values)``: a secondary index on the
        ``equality`` attribute, else on the anchor attribute, narrows
        the candidates; otherwise one pass over the heap.  All of them
        go through :meth:`matching`; ``tally[0]`` grows by their number.
        """
        anchor = self.analysis.anchor if self.analysis else None
        tids = None
        if equality is not None:
            value = equality[1]
            if value is None or value != value:
                # Null — and NaN, which compares unequal even to
                # itself — never satisfies an equi-join conjunct.
                return iter(())
            index = relation.index_on(
                relation.schema.attributes[equality[0]].name)
            if index is not None:
                tids = index.search(value)
        if tids is None and anchor is not None:
            low, high = anchor.interval.low, anchor.interval.high
            point = key_eq(low, high)
            index = relation.index_on(anchor.attr, None if point else "btree")
            if index is not None:
                tids = index.search(low) if point else index.range_search(
                    None if low is NEG_INF else low,
                    None if high is POS_INF else high,
                    low_inclusive=anchor.interval.low_closed,
                    high_inclusive=anchor.interval.high_closed)
        pairs = relation.items() if tids is None else relation.lookup(tids)
        if tally is not None:
            tally[0] += len(pairs)
        found = self.matching(pairs, equality)
        if tids is not None:
            return found
        name = relation.name
        return ((TupleId(name, slot), values) for slot, values in found)

    def residual_matches(self, values: tuple,
                         old_values: tuple | None) -> bool:
        """Does a tuple value satisfy the residual (non-anchor) part?"""
        if self.residual is None:
            return True
        bindings = Bindings(
            current={self.var: values},
            previous={self.var: old_values} if old_values is not None
            else {})
        try:
            return self.residual(bindings) is True
        except KeyError:
            return False


@dataclass
class ActionCommand:
    """One command of the rule action with its shared-variable info."""

    command: ast.Command
    #: condition variables this command references (bound via P-node)
    shared_vars: frozenset[str]
    #: True when the command's replace/delete target is a shared variable
    #: (the paper's replace' / delete')
    targets_pnode: bool = False
    #: the command's plan (the action planner's) and the schema version
    #: it was built at; it goes with the compiled rule
    planned: PlannedCommand | None = None
    schema_version: int = -1


class CompiledRule:
    """A rule ready for network construction and firing."""

    def __init__(self, definition: ast.DefineRule, catalog: Catalog):
        self.definition = definition
        self.name = definition.name
        self.ruleset = definition.ruleset
        self.priority = definition.priority
        self.event = definition.event
        self.condition = definition.condition

        scope: dict[str, str] = dict(
            getattr(definition, "condition_scope", {}) or {})
        variables = set(scope)
        if definition.condition is not None:
            variables |= variables_of(definition.condition)
        if definition.event is not None:
            variables.add(definition.event.relation)
        for item in definition.from_items:
            variables.add(item.var)
        missing = variables - set(scope)
        if missing:
            raise RuleError(
                f"rule {self.name!r}: unresolved variables "
                f"{sorted(missing)} (was the rule analyzed?)")
        self.variables: list[str] = sorted(variables)
        self.var_relations: dict[str, str] = {
            v: scope[v] for v in self.variables}
        self.referenced_relations: frozenset[str] = frozenset(
            self.var_relations.values())

        previous_vars = (previous_variables_of(definition.condition)
                         if definition.condition is not None else set())
        event_var = definition.event.relation if definition.event else None

        graph = build_condition_graph(definition.condition, self.variables)
        if any(compile_expr(c)(Bindings()) is not True
               for c in graph.constants):
            raise RuleError(
                f"rule {self.name!r}: condition contains a constant "
                f"conjunct that is not true")

        self.specs: dict[str, VariableSpec] = {}
        simple = len(self.variables) == 1
        for var in self.variables:
            conjuncts = graph.selections.get(var, [])
            analysis = analyze_selection(conjuncts, var)
            if analysis.unsatisfiable:
                raise RuleError(
                    f"rule {self.name!r}: selection on {var!r} is "
                    f"unsatisfiable")
            full = conjoin(conjuncts)
            spec = VariableSpec(
                var=var,
                relation=self.var_relations[var],
                event=definition.event if var == event_var else None,
                is_transition=var in previous_vars,
                is_new=any(isinstance(c, ast.NewCall) and c.var == var
                           for c in conjuncts),
                is_simple=simple,
                selection_conjuncts=conjuncts,
                analysis=analysis,
                residual=(compile_expr(analysis.residual)
                          if analysis.residual is not None else None),
                full_selection=(compile_expr(full)
                                if full is not None else None),
            )
            self.specs[var] = spec
        #: variables whose α-memory is dynamic (event-, transition- or
        #: new()-gated); a rule that has one gets its dynamic memories
        #: and P-node flushed after each transition that touched it
        self.dynamic_variables: list[str] = [
            v for v in self.variables if self.specs[v].is_dynamic]
        self.has_dynamic_variable: bool = bool(self.dynamic_variables)

        self.joins: list[JoinConjunct] = [
            JoinConjunct(expr=j, variables=frozenset(variables_of(j)),
                         evaluate=compile_expr(j),
                         equijoin=equijoin_of_conjunct(j))
            for j in graph.joins]
        #: equi-join adjacency: var -> [(other var, attr, position)] for
        #: every equi-join conjunct touching it — the join planner's
        #: "reachable through a bound equi-join" lookup
        self.equijoins_by_var: dict[str, list[tuple[str, str, int]]] = {}
        for conjunct in self.joins:
            equi = conjunct.equijoin
            if equi is None:
                continue
            self.equijoins_by_var.setdefault(equi.left_var, []).append(
                (equi.right_var, equi.left_attr, equi.left_position))
            self.equijoins_by_var.setdefault(equi.right_var, []).append(
                (equi.left_var, equi.right_attr, equi.right_position))

        self.actions: list[ActionCommand] = self._compile_actions()
        self._validate_previous_in_actions()
        #: ``(schema version, plans)``: the action plans a firing runs,
        #: as :meth:`~repro.core.action_planner.ActionPlanner
        #: .plan_firing` last returned them
        self.firing_plans: tuple | None = None
        #: the join planner's memo for this rule (seek orders, β chains,
        #: algorithm decisions, estimates) and the schema version it was
        #: built at; it goes with the compiled rule
        self.join_memo: dict = {}
        self.join_memo_version = -1

    # ------------------------------------------------------------------

    def shared_vars_of(self, command: ast.Command) -> frozenset[str]:
        """Condition variables referenced by an action command."""
        used: set[str] = set()
        if isinstance(command, (ast.Append, ast.Retrieve)):
            for col in (command.targets if isinstance(command, ast.Append)
                        else command.targets):
                used |= variables_of(col.expr)
        if isinstance(command, ast.Replace):
            for col in command.assignments:
                used |= variables_of(col.expr)
        if isinstance(command, (ast.Delete, ast.Replace)):
            used.add(command.target_var)
        if getattr(command, "where", None) is not None:
            used |= variables_of(command.where)
        return frozenset(used) & frozenset(self.variables)

    def join_order_from(self, seed_var: str) -> list[str]:
        """The *static* join order: the remaining variables, preferring
        ones connected by a join conjunct to the already bound set
        (avoiding cartesian intermediate results).  The baseline the
        cost-driven :class:`~repro.core.join_planner.JoinPlanner`
        replaces on the seek hot path — and its fallback."""
        bound = {seed_var}
        order: list[str] = []
        remaining = [v for v in self.variables if v != seed_var]
        while remaining:
            connected = [
                v for v in remaining
                if any(j.variables & bound and v in j.variables
                       for j in self.joins)]
            pick = connected[0] if connected else remaining[0]
            remaining.remove(pick)
            bound.add(pick)
            order.append(pick)
        return order

    def applicable_joins(self, bound: set[str]) -> list[JoinConjunct]:
        """Join conjuncts fully evaluable over the bound variables."""
        return [j for j in self.joins if j.variables <= bound]

    def __repr__(self) -> str:
        return (f"CompiledRule({self.name!r}, vars={self.variables}, "
                f"priority={self.priority})")

    # ------------------------------------------------------------------

    def _compile_actions(self) -> list[ActionCommand]:
        action = self.definition.action
        commands = (action.commands if isinstance(action, ast.Block)
                    else [action])
        out: list[ActionCommand] = []
        for command in commands:
            if isinstance(command, ast.Halt):
                out.append(ActionCommand(command, frozenset()))
                continue
            shared = self.shared_vars_of(command)
            targets_pnode = (
                isinstance(command, (ast.Delete, ast.Replace))
                and command.target_var in self.variables)
            out.append(ActionCommand(command, shared, targets_pnode))
        return out

    def _validate_previous_in_actions(self) -> None:
        """``previous v`` in an action needs v to carry transition pairs:
        v must be transition-gated or bound by a replace event."""
        for entry in self.actions:
            if isinstance(entry.command, ast.Halt):
                continue
            prev_vars: set[str] = set()
            command = entry.command
            for col in getattr(command, "targets", []) or []:
                prev_vars |= previous_variables_of(col.expr)
            for col in getattr(command, "assignments", []) or []:
                prev_vars |= previous_variables_of(col.expr)
            if getattr(command, "where", None) is not None:
                prev_vars |= previous_variables_of(command.where)
            for var in prev_vars:
                spec = self.specs.get(var)
                ok = spec is not None and (
                    spec.is_transition
                    or (spec.event is not None
                        and spec.event.kind is ast.EventKind.REPLACE))
                if not ok:
                    raise RuleError(
                        f"rule {self.name!r}: action references "
                        f"previous {var}.… but {var!r} carries no "
                        f"transition pair (use previous in the condition "
                        f"or an on replace event)")
